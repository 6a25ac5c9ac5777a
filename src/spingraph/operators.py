"""Dense linear algebra for tensor-product spin systems.

Site-local bases, the site-index table, operator embedding, exact
Hermitian propagation, and state/overlap arithmetic. Everything here is a
pure function on numpy arrays; no internal mutability.

Conventions
-----------
* Site 0 is the leftmost tensor factor, so kets read left to right: a
  basis index is the base-d number whose digits are the N site levels,
  site 0 most significant. ``site_levels`` is the single owner of that
  rule; every Hamiltonian, drive, jump and embedded state is built from
  its table, mostly through ``transition_indices``. The ``kron``
  embeddings below are kept as the dense reference.
* ``sigma_z |up> = +|up>`` and ``S_z = sigma_z / 2``.
* hbar = 1. Energies and Rabi rates are angular frequencies in rad/us,
  times in us. A value quoted as "2 pi x f MHz" enters as 2*pi*f rad/us.
  The ideal chain mode instead uses dimensionless units with J = 1.
"""

from __future__ import annotations

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
    "evolve_unitary",
    "population",
    "basis_state",
    "product_state",
    "embed_spin_state",
    "check_hermitian",
]

MAX_DIM = 4096

HERMITICITY_TOL = 1e-9
NORM_TOL = 1e-8


@dataclass(frozen=True)
class LocalBasis:
    """Ordered set of named site levels.

    The position of each name in ``levels`` is its basis index; that
    ordering is part of the public contract and is relied on by state
    serialization and by the jump-operator builders.
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


def site_levels(n_sites: int, d: int) -> np.ndarray:
    """(d**N, N) table: row k holds the site levels of basis state k, in
    C order (site 0 most significant). Refuses dimensions beyond budget."""
    _check_dim_budget(d, n_sites)
    return np.arange(d**n_sites)[:, None] // _place_values(n_sites, d) % d


def transition_indices(
    n_sites: int, basis: LocalBasis, moves: Mapping[int, tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Index form of a product of single-site transitions |to><from|.

    ``moves`` maps each acted-on site to its (to, from) level names; the
    other sites carry the identity. Returns (dst, src), src ascending, such
    that the operator is sum_k |dst_k><src_k|; to == from on every site
    gives a projector (dst == src).
    """
    levels = site_levels(n_sites, basis.dim)
    sites = list(moves)
    to = np.array([basis.index(pair[0]) for pair in moves.values()], dtype=int)
    frm = np.array([basis.index(pair[1]) for pair in moves.values()], dtype=int)
    src = np.flatnonzero(np.all(levels[:, sites] == frm, axis=1))
    return src + (to - frm) @ _place_values(n_sites, basis.dim)[sites], src


def _place_values(n_sites: int, d: int) -> np.ndarray:
    # a basis index is its site levels dotted with these: site 0 is the
    # most significant base-d digit
    return d ** np.arange(n_sites - 1, -1, -1)


def check_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise if ``h`` is not Hermitian within ``tol`` or has NaN/Inf entries."""
    if not np.all(np.isfinite(h)):
        raise ValueError("operator has NaN or Inf entries")
    dev = np.max(np.abs(h - h.conj().T))
    if dev > tol:
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


def population(
    state: np.ndarray, target: np.ndarray
) -> float:
    """Target-state population of a pure state or a density matrix.

    Returns |<target|psi>|^2 for a state vector and Re <target|rho|target>
    for a density matrix. Invariant under global phases of either input.
    """
    target = np.asarray(target, dtype=complex)
    state = np.asarray(state, dtype=complex)
    tnorm = np.linalg.norm(target)
    if abs(tnorm - 1.0) > NORM_TOL:
        raise ValueError(f"target not normalized: |norm - 1| = {abs(tnorm - 1.0):.3e}")
    if state.ndim == 1:
        if state.shape != target.shape:
            raise ValueError("state and target dimensions differ")
        return float(abs(np.vdot(target, state)) ** 2)
    if state.ndim == 2:
        if state.shape != (target.size, target.size):
            raise ValueError("density matrix and target dimensions differ")
        return float(np.real(np.vdot(target, state @ target)))
    raise ValueError("state must be a vector or a square matrix")


def basis_state(labels: Sequence[str], basis: LocalBasis) -> np.ndarray:
    """Computational basis ket |l_0 l_1 ... l_{N-1}> (site 0 leftmost)."""
    n = len(labels)
    d = basis.dim
    _check_dim_budget(d, n)
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
    _check_dim_budget(basis.dim, n_sites)
    # relabel the spin levels (up, down) = (0, 1) into the basis
    slots = np.array([basis.index("up"), basis.index("down")])[site_levels(n_sites, 2)]
    out = np.zeros(basis.dim**n_sites, dtype=complex)
    out[slots @ _place_values(n_sites, basis.dim)] = psi2
    return out


def _check_dim_budget(local_dim: int, n_sites: int) -> None:
    if local_dim**n_sites > MAX_DIM:
        raise ValueError(
            f"dimension {local_dim}^{n_sites} exceeds the supported budget {MAX_DIM}"
        )
