"""Dense linear algebra for tensor-product spin systems.

Site-local bases, the site-index table, operator embedding, exact
Hermitian propagation, and basis and product states. Everything here is a
pure function on numpy arrays; no internal mutability.

Conventions
-----------
* Site 0 is the leftmost tensor factor, so kets read left to right: a
  basis index is the base-d number whose digits are the N site levels,
  site 0 most significant. ``site_levels`` is the single owner of that
  rule; every Hamiltonian, drive, jump and embedded state is built from
  its table, mostly through ``transition_indices`` and ``hermitian_sum``
  (dense) or ``hermitian_blocks`` (the coupled blocks a state reaches).
  Both tables are memoised and returned read-only, so every caller shares
  one copy. The ``kron`` embeddings below are kept as the dense reference.
* Two budgets: dense matrices (operators, Hamiltonians, blocks) stay within
  MAX_DIM, and state vectors and the site-level table within MAX_STATE_DIM.
* ``sigma_z |up> = +|up>`` and ``S_z = sigma_z / 2``.
* hbar = 1. Energies and Rabi rates are angular frequencies in rad/us,
  times in us. A value quoted as "2 pi x f MHz" enters as 2*pi*f rad/us.
  The ideal chain mode instead uses dimensionless units with J = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "LocalBasis",
    "SPIN_BASIS",
    "EMISSION_BASIS",
    "PROTOCOL_BASIS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "spin_half_operator",
    "level_projector",
    "level_transition",
    "embed_local_operator",
    "two_site_operator",
    "site_levels",
    "transition_indices",
    "hermitian_sum",
    "hermitian_blocks",
    "evolve_unitary",
    "basis_state",
    "product_state",
    "embed_spin_state",
    "check_hermitian",
]

#: Largest dense matrix dimension.
MAX_DIM = 4096
#: Largest state-vector and site-level-table dimension: 5^6, six atoms on
#: the protocol's five levels.
MAX_STATE_DIM = 5**6

HERMITICITY_TOL = 1e-9


@dataclass(frozen=True)
class LocalBasis:
    """Ordered set of named site levels.

    The position of each name in ``levels`` is its basis index; that
    ordering is part of the public contract and is relied on by every
    index-built operator and state.
    """

    levels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.levels)

    def index(self, name: str) -> int:
        """Basis index of a named level. Raises KeyError for unknown names."""
        try:
            return self.levels.index(name)
        except ValueError:
            raise KeyError(f"level {name!r} not in basis {self.levels}") from None

    def has_level(self, name: str) -> bool:
        return name in self.levels

    def __post_init__(self) -> None:
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("level names must be unique")
        if self.dim not in (2, 3, 5):
            raise ValueError(f"unsupported local dimension {self.dim}")


#: Bare spin-1/2 site: index 0 = "up", index 1 = "down".
SPIN_BASIS = LocalBasis(("up", "down"))

#: Spin-1/2 plus an empty ground level "g" that collects spontaneous
#: emission: indices (up, down, g) = (0, 1, 2).
EMISSION_BASIS = LocalBasis(("up", "down", "g"))

#: Clock states, spin levels, and the auxiliary decoupling level:
#: indices (0, 1, up, down, r) = (0, 1, 2, 3, 4).
PROTOCOL_BASIS = LocalBasis(("0", "1", "up", "down", "r"))


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def spin_half_operator(op2: np.ndarray, basis: LocalBasis) -> np.ndarray:
    """Lift a 2x2 spin operator onto a (possibly larger) local basis.

    The 2x2 block is written into the (up, down) rows/columns; every
    other level gets zero rows and columns. That makes extra levels
    spectators of the spin dynamics: coupling terms and the field term
    both vanish on them.
    """
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {op2.shape}")
    iu, idn = basis.index("up"), basis.index("down")
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    sub = np.ix_((iu, idn), (iu, idn))
    out[sub] = op2
    return out


def level_projector(name: str, basis: LocalBasis) -> np.ndarray:
    """|name><name| on one site."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    i = basis.index(name)
    out[i, i] = 1.0
    return out


def level_transition(to_name: str, from_name: str, basis: LocalBasis) -> np.ndarray:
    """|to><from| on one site."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    out[basis.index(to_name), basis.index(from_name)] = 1.0
    return out


def embed_local_operator(
    op: np.ndarray, site: int, n_sites: int, basis: LocalBasis
) -> np.ndarray:
    """I x ... x op x ... x I with ``op`` at tensor position ``site``.

    Parameters
    ----------
    op : (d, d) array with d = basis.dim.
    site : which factor carries the operator; site 0 is leftmost.
    n_sites : total number of sites.
    basis : local basis fixing d.
    """
    op = np.asarray(op, dtype=complex)
    d = basis.dim
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match local dim {d}")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    _check_dim_budget(d, n_sites)
    left = np.eye(d**site, dtype=complex)
    right = np.eye(d ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def two_site_operator(
    op_a: np.ndarray,
    site_a: int,
    op_b: np.ndarray,
    site_b: int,
    n_sites: int,
    basis: LocalBasis,
) -> np.ndarray:
    """Embedded product op_a(site_a) op_b(site_b) for distinct sites."""
    if site_a == site_b:
        raise ValueError("sites must be distinct")
    d = basis.dim
    _check_dim_budget(d, n_sites)
    factors = [np.eye(d, dtype=complex)] * n_sites
    factors[site_a] = np.asarray(op_a, dtype=complex)
    factors[site_b] = np.asarray(op_b, dtype=complex)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@functools.lru_cache(maxsize=16)
def site_levels(n_sites: int, d: int) -> np.ndarray:
    """(d**N, N) table: row k holds the site levels of basis state k, in
    C order (site 0 most significant). Memoised and read-only. Refuses
    dimensions beyond MAX_STATE_DIM."""
    _check_dim_budget(d, n_sites, MAX_STATE_DIM)
    return _read_only(np.arange(d**n_sites)[:, None] // _place_values(n_sites, d) % d)


def transition_indices(
    n_sites: int, basis: LocalBasis, moves: Mapping[int, tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Index form of a product of single-site transitions |to><from|.

    ``moves`` maps each acted-on site to its (to, from) level names; the
    other sites carry the identity. Returns (dst, src), src ascending, such
    that the operator is sum_k |dst_k><src_k|; to == from on every site
    gives a projector (dst == src). Memoised per (n_sites, basis, moves);
    both arrays are read-only.
    """
    return _transition_indices(n_sites, basis, tuple(moves.items()))


@functools.lru_cache(maxsize=256)
def _transition_indices(
    n_sites: int, basis: LocalBasis, moves: tuple[tuple[int, tuple[str, str]], ...]
) -> tuple[np.ndarray, np.ndarray]:
    levels = site_levels(n_sites, basis.dim)
    sites = [site for site, _ in moves]
    to = np.array([basis.index(pair[0]) for _, pair in moves], dtype=int)
    frm = np.array([basis.index(pair[1]) for _, pair in moves], dtype=int)
    src = np.flatnonzero(np.all(levels[:, sites] == frm, axis=1))
    return _read_only(src + (to - frm) @ _place_values(n_sites, basis.dim)[sites]), _read_only(src)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def hermitian_sum(
    terms: Sequence[tuple[complex, Mapping[int, tuple[str, str]]]],
    diagonal: np.ndarray,
    n_sites: int,
    basis: LocalBasis,
) -> np.ndarray:
    """Dense h = sum over (coeff, moves) terms of coeff T + h.c., plus
    diag(diagonal), where T is the product of single-site transitions
    ``moves`` (see ``transition_indices``). The diagonal is added after the
    terms. Refuses an over-budget dimension before any d^N x d^N
    allocation."""
    _check_dim_budget(basis.dim, n_sites)
    dim = basis.dim**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for coeff, moves in terms:
        dst, src = transition_indices(n_sites, basis, moves)
        h[dst, src] += coeff
        h[src, dst] += np.conj(coeff)
    h[np.diag_indices(dim)] += diagonal
    return h


def hermitian_blocks(
    terms: Sequence[tuple[complex, Mapping[int, tuple[str, str]]]],
    diagonal: np.ndarray,
    n_sites: int,
    basis: LocalBasis,
    support: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of h = ``hermitian_sum(terms, diagonal)`` that the basis
    indices ``support`` reach, without forming h.

    The terms' transitions join basis indices into connected components,
    and h has no entry between two components. Each component holding an
    index of ``support`` gives one (idx, block) pair: idx ascending, and
    block equal to h[np.ix_(idx, idx)], each entry summed in the same order
    as ``hermitian_sum`` does. Refuses a block beyond MAX_DIM before
    allocating any.
    """
    _check_dim_budget(basis.dim, n_sites, MAX_STATE_DIM)
    dim = basis.dim**n_sites
    edges = [transition_indices(n_sites, basis, moves) for _, moves in terms]
    labels = _component_labels(dim, edges)
    reached = np.isin(labels, labels[support])
    rows = np.flatnonzero(reached)
    rows = rows[np.argsort(labels[rows], kind="stable")]
    starts = np.flatnonzero(np.diff(labels[rows], prepend=-1))
    sizes = np.diff(starts, append=len(rows))
    if sizes.max(initial=0) > MAX_DIM:
        raise ValueError(f"block dimension {sizes.max()} exceeds the supported budget {MAX_DIM}")
    # all blocks side by side in one flat buffer: a reached index's block
    # starts at offset[index], has width[index] rows, and holds it at pos[index]
    first = np.cumsum(sizes**2) - sizes**2
    block = np.repeat(np.arange(len(sizes)), sizes)
    offset, width, pos = np.zeros((3, dim), dtype=int)
    offset[rows] = first[block]
    width[rows] = sizes[block]
    pos[rows] = np.arange(len(rows)) - starts[block]
    flat = np.zeros(int(np.sum(sizes**2)), dtype=complex)
    for (coeff, _), (dst, src) in zip(terms, edges):
        keep = reached[src]
        dst, src = dst[keep], src[keep]
        flat[offset[src] + pos[dst] * width[src] + pos[src]] += coeff
        flat[offset[src] + pos[src] * width[src] + pos[dst]] += np.conj(coeff)
    flat[offset[rows] + pos[rows] * (width[rows] + 1)] += diagonal[rows]
    return [
        (rows[s : s + k], flat[f : f + k * k].reshape(k, k))
        for s, k, f in zip(starts, sizes, first)
    ]


def _component_labels(dim: int, edges: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Smallest index of each basis index's connected component under the
    (dst, src) edges: min-label propagation with pointer jumping. Every
    label stays inside its component and only falls, so the loop ends with
    one label, the component's smallest index, per component."""
    labels = np.arange(dim)
    if not edges:
        return labels
    dst = np.concatenate([d for d, _ in edges])
    src = np.concatenate([s for _, s in edges])
    while not np.array_equal(labels[dst], labels[src]):
        low = np.minimum(labels[dst], labels[src])
        np.minimum.at(labels, dst, low)
        np.minimum.at(labels, src, low)
        labels = labels[labels]
    return labels


def _place_values(n_sites: int, d: int) -> np.ndarray:
    # a basis index is its site levels dotted with these: site 0 is the
    # most significant base-d digit
    return d ** np.arange(n_sites - 1, -1, -1)


def check_hermitian(h: np.ndarray) -> None:
    """Raise if ``h`` is not Hermitian within HERMITICITY_TOL or has NaN/Inf
    entries."""
    if not np.all(np.isfinite(h)):
        raise ValueError("operator has NaN or Inf entries")
    dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"operator not Hermitian: max|H - H^dag| = {dev:.3e}")


def evolve_unitary(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i h t) psi via spectral decomposition of Hermitian h.

    Exact to floating point at these dimensions; there is no step-size
    error to control. Norm is preserved to 1e-10.
    """
    check_hermitian(h)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ValueError(
            f"state dim {psi.shape} does not match operator dim {h.shape[0]}"
        )
    if t == 0.0:
        return psi.copy()
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))


def basis_state(labels: Sequence[str], basis: LocalBasis) -> np.ndarray:
    """Computational basis ket |l_0 l_1 ... l_{N-1}> (site 0 leftmost)."""
    n = len(labels)
    d = basis.dim
    _check_dim_budget(d, n, MAX_STATE_DIM)
    levels = np.array([basis.index(name) for name in labels], dtype=int)
    out = np.zeros(d**n, dtype=complex)
    out[levels @ _place_values(n, d)] = 1.0
    return out


def product_state(local: np.ndarray, n_sites: int) -> np.ndarray:
    """N-fold tensor power of one normalized single-site vector."""
    local = np.asarray(local, dtype=complex)
    out = np.ones(local.size**n_sites, dtype=complex)
    for column in site_levels(n_sites, local.size).T:
        out *= local[column]
    return out


def embed_spin_state(psi2: np.ndarray, n_sites: int, basis: LocalBasis) -> np.ndarray:
    """Map a 2^N spin state onto the (up, down) slots of a d^N space.

    Amplitudes land on the basis states whose every site is "up" or
    "down"; all other levels stay unpopulated. With basis = SPIN_BASIS
    this is the identity.
    """
    psi2 = np.asarray(psi2, dtype=complex)
    if psi2.size != 2**n_sites:
        raise ValueError(f"expected 2^{n_sites} amplitudes, got {psi2.size}")
    _check_dim_budget(basis.dim, n_sites, MAX_STATE_DIM)
    # relabel the spin levels (up, down) = (0, 1) into the basis
    slots = np.array([basis.index("up"), basis.index("down")])[site_levels(n_sites, 2)]
    out = np.zeros(basis.dim**n_sites, dtype=complex)
    out[slots @ _place_values(n_sites, basis.dim)] = psi2
    return out


def _check_dim_budget(local_dim: int, n_sites: int, budget: int = MAX_DIM) -> None:
    if local_dim**n_sites > budget:
        raise ValueError(
            f"dimension {local_dim}^{n_sites} exceeds the supported budget {budget}"
        )
