"""Dense linear algebra for tensor-product spin systems.

Site-local bases, the site-index table, operator embedding, exact
Hermitian propagation, and basis and product states. Everything here is a
pure function on numpy arrays; no internal mutability.

No command calls the two ``kron`` embeddings, ``embed_local_operator`` and
``two_site_operator``, nor the dense ``evolve_unitary`` and
``chain.build_control_hz``, and only ``dynamics.evolve_master`` calls the
dense drift ``chain.assemble_system`` (``tests/test_one_kernel.py`` holds
the last three to that). They stay because the benchmark's span tracer
(``perfbench/spans.py``, ``TARGETS``) wraps them by name; the tests build
their dense reference from them (``tests/kron_reference.py``).

Conventions
-----------
* Site 0 is the leftmost tensor factor, so kets read left to right: a
  basis index is the base-d number whose digits are the N site levels,
  site 0 most significant. ``site_levels`` is the single owner of that
  rule; every Hamiltonian, drive, jump and state is built from its table,
  mostly through ``transition_indices`` and ``hermitian_sum`` (dense) or
  ``hermitian_blocks`` (the coupled blocks a state reaches). Both tables
  are memoised and returned read-only, so every caller shares one copy.
* Three budgets: dense matrices (operators, Hamiltonians, blocks) stay
  within MAX_DIM, state vectors and the site-level table within
  MAX_STATE_DIM, and the population traces of one noise ensemble (samples
  times slice boundaries) within MAX_TRACE_STACK.
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
    "embed_local_operator",
    "two_site_operator",
    "site_levels",
    "transition_indices",
    "hermitian_sum",
    "hermitian_blocks",
    "BlockPattern",
    "evolve_unitary",
    "basis_state",
    "product_state",
    "check_hermitian",
]

#: Largest dense matrix dimension.
MAX_DIM = 4096
#: Largest state-vector and site-level-table dimension: 5^6, six atoms on
#: the protocol's five levels.
MAX_STATE_DIM = 5**6
#: Largest trace stack of one ensemble, in populations: 80 MB of floats.
MAX_TRACE_STACK = 10**7

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
    indices ``support`` reach, without forming h: one ``BlockPattern``
    filled once."""
    pattern = BlockPattern([moves for _, moves in terms], n_sites, basis, support)
    return pattern.fill([coeff for coeff, _ in terms], diagonal)


class BlockPattern:
    """Where the entries of the blocks of a ``hermitian_sum`` land, for
    one list of term moves; ``fill`` sums any coefficients and diagonal
    into them, so a stack of Hamiltonians that share their moves shares
    one pattern.

    The terms' transitions join basis indices into connected components,
    and h has no entry between two components. Each component holding an
    index of ``support`` gives one block: its indices ascending, and its
    matrix equal to h[np.ix_(idx, idx)], each entry summed in the same
    order as ``hermitian_sum`` does. Refuses a block beyond MAX_DIM before
    allocating any.
    """

    def __init__(self, moves: Sequence[Mapping], n_sites: int, basis: LocalBasis, support):
        _check_dim_budget(basis.dim, n_sites, MAX_STATE_DIM)
        dim = basis.dim**n_sites
        edges = [transition_indices(n_sites, basis, m) for m in moves]
        labels = _component_labels(dim, edges)
        reached = np.isin(labels, labels[support])
        rows = np.flatnonzero(reached)
        rows = rows[np.argsort(labels[rows], kind="stable")]
        starts = np.flatnonzero(np.diff(labels[rows], prepend=-1))
        sizes = np.diff(starts, append=len(rows))
        if sizes.max(initial=0) > MAX_DIM:
            raise ValueError(
                f"block dimension {sizes.max()} exceeds the supported budget {MAX_DIM}"
            )
        # all blocks side by side in one flat buffer: a reached index's block
        # starts at offset[index], has width[index] rows, and holds it at pos[index]
        first = np.cumsum(sizes**2) - sizes**2
        block = np.repeat(np.arange(len(sizes)), sizes)
        offset, width, pos = np.zeros((3, dim), dtype=int)
        offset[rows] = first[block]
        width[rows] = sizes[block]
        pos[rows] = np.arange(len(rows)) - starts[block]
        self._size = int(np.sum(sizes**2))
        # flat positions of each term's entries and of their conjugates
        self._entries = []
        for dst, src in edges:
            keep = reached[src]
            dst, src = dst[keep], src[keep]
            self._entries.append((
                offset[src] + pos[dst] * width[src] + pos[src],
                offset[src] + pos[src] * width[src] + pos[dst],
            ))
        self._rows = rows
        self._diagonal = offset[rows] + pos[rows] * (width[rows] + 1)
        #: the basis indices of each block, ascending
        self.indices = [rows[s : s + k] for s, k in zip(starts, sizes)]
        self._spans = list(zip(first, sizes))

    def fill(self, coeffs: Sequence[complex], diagonal: np.ndarray) -> list[tuple]:
        """The (idx, block) pairs of h = sum of coeff T + h.c. over the
        pattern's moves, plus diag(diagonal). A (G, M) coefficient stack
        with a (G, dim) diagonal stack gives (G, k, k) blocks, one row per
        Hamiltonian."""
        coeffs, diagonal = np.asarray(coeffs), np.asarray(diagonal)
        stack = diagonal.shape[:-1]
        flat = np.zeros(stack + (self._size,), dtype=complex)
        for m, (entry, mirror) in enumerate(self._entries):
            flat[..., entry] += coeffs[..., m, None]
            flat[..., mirror] += np.conj(coeffs[..., m, None])
        flat[..., self._diagonal] += diagonal[..., self._rows]
        blocks = [flat[..., f : f + k * k].reshape(stack + (k, k)) for f, k in self._spans]
        return list(zip(self.indices, blocks))


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


def _check_dim_budget(local_dim: int, n_sites: int, budget: int = MAX_DIM) -> None:
    if local_dim**n_sites > budget:
        raise ValueError(
            f"dimension {local_dim}^{n_sites} exceeds the supported budget {budget}"
        )
