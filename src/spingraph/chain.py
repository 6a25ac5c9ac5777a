"""Hamiltonian builders: ideal XX chain, global-field control term, and the
Rydberg dipolar chain with its long-range error terms.

Every Hamiltonian here is one ``drift_terms`` triple (a coupling list of
(site, to, from) terms, their coefficients, a real diagonal), summed
densely by ``operators.hermitian_sum`` or block by block by
``operators.BlockPattern``.

Two drift models are supported. The ideal model is a nearest-neighbor XX
chain with a single coupling J (dimensionless units, J = 1 by default).
The Rydberg model derives every pairwise coupling from 3D atom positions:
resonant dipole-dipole exchange C3 (1 - 3 cos^2 theta) / R^3 between
opposite spin levels, and van der Waals shifts -C6 / R^6 between like
levels. Both drifts commute with the control term Hz = sum_i S^z_i, which
is what makes the exact GRAPE gradient available.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .operators import (
    SPIN_BASIS,
    LocalBasis,
    Term,
    check_trace_stack,
    hermitian_sum,
    site_levels,
    transition_indices,
)

__all__ = [
    "ChainGeometry",
    "check_positions",
    "IdealModel",
    "RydbergModel",
    "ModelKind",
    "build_control_hz",
    "build_control_hz_diagonal",
    "drift_terms",
    "assemble_system",
]

TWO_PI = 2.0 * np.pi

#: Interaction constants of the Rydberg chain, angular: rad/us times um^3
#: (C3) or um^6 (C6_UP, C6_DOWN).
C3 = TWO_PI * 8780.0
C6_UP = -TWO_PI * 4161550.0
C6_DOWN = TWO_PI * 3452600.0
#: Atom spacing of the regular chain, um.
SPACING = 19.3
#: Tag of these constants in every serialized artifact, so that numbers
#: stay traceable to the constants that produced them.
CONSTANTS_VERSION = "rydberg-constants-v1"

#: Minimum admissible interatomic distance, in um (1 nm).
MIN_DISTANCE = 1e-3

#: Levels with a van der Waals constant, in the order ``_pair_strengths``
#: returns their shifts.
VDW_LEVELS = ("up", "down")


@functools.lru_cache(maxsize=16)
def _pairs(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every atom pair i < j, in ``np.triu_indices`` order.
    Memoised and read-only."""
    pairs = np.triu_indices(n_sites, 1)
    for side in pairs:
        side.flags.writeable = False
    return pairs


@dataclass(frozen=True)
class ChainGeometry:
    """Atom positions of the Rydberg chain.

    positions : (N, 3) array, um. The quantization axis is z, and the
        regular chain places atom i at (0, 0, i * SPACING).
    delta_r : deterministic offset, um, added to every pairwise distance
        in the coupling laws while leaving all angles unchanged. Used for
        the systematic distance-mismatch sweeps; 0 for the nominal chain.

    Non-finite values are refused here, and so are two atoms closer than
    1 nm and a delta_r that brings a pair's effective distance below 1 nm
    (``check_positions``, which names the pair).

    Two geometries are equal when their positions are (``np.array_equal``)
    and their delta_r is; the hash agrees with that equality.
    """

    positions: np.ndarray
    delta_r: float = 0.0

    # written out: the generated ones would compare and hash the array
    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainGeometry):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and self.delta_r == other.delta_r

    def __hash__(self) -> int:
        return hash((tuple(self.positions.ravel().tolist()), self.delta_r))

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
            raise ValueError("positions must be an (N >= 2, 3) array")
        check_positions(pos, self.delta_r)
        object.__setattr__(self, "positions", pos)

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def regular(cls, n_sites: int) -> "ChainGeometry":
        """Chain along the quantization axis z at the SPACING."""
        pos = np.zeros((n_sites, 3))
        pos[:, 2] = SPACING * np.arange(n_sites)
        return cls(positions=pos)

    def with_delta_r(self, delta_r_um: float) -> "ChainGeometry":
        return replace(self, delta_r=delta_r_um)


def check_positions(positions: np.ndarray, delta_r: float = 0.0) -> None:
    """Refuse a (..., N, 3) stack of atom positions, um, if a position or
    delta_r is not finite, if two atoms of one geometry are closer than
    1 nm, or if their distance plus delta_r is below 1 nm. The last two
    name the pair, in the first geometry of the stack that has one; the
    closer-than check comes first."""
    if not (np.all(np.isfinite(positions)) and np.isfinite(delta_r)):
        raise ValueError("positions and delta_r must be finite")
    i, j = _pairs(positions.shape[-2])
    r = np.linalg.norm(positions[..., j, :] - positions[..., i, :], axis=-1)
    r = r.reshape(-1, i.size)
    # a check fails on a geometry exactly where r + min(delta_r, 0) is below 1 nm
    failing = np.flatnonzero(np.any(r + min(delta_r, 0.0) < MIN_DISTANCE, axis=1))
    if failing.size:
        r = r[failing[0]]
        for too_short, message in (
            (r < MIN_DISTANCE, "atoms ({}, {}) closer than 1 nm"),
            (r + delta_r < MIN_DISTANCE, "effective distance of atoms ({}, {}) below 1 nm"),
        ):
            if np.any(too_short):
                k = np.argmax(too_short)
                raise ValueError(message.format(i[k], j[k]))


@dataclass(frozen=True)
class IdealModel:
    """Nearest-neighbor XX chain with uniform coupling J."""

    n_sites: int
    coupling: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.coupling):
            raise ValueError(f"ideal coupling must be finite, not {self.coupling}")
        if self.coupling == 0.0:
            raise ValueError("ideal coupling must be nonzero")
        if self.n_sites < 2:
            raise ValueError("need at least two sites")


@dataclass(frozen=True)
class RydbergModel:
    """Dipolar chain; all couplings derive from the geometry."""

    geometry: ChainGeometry

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites


ModelKind = Union[IdealModel, RydbergModel]


def _pair_strengths(positions: np.ndarray, delta_r: float) -> tuple[np.ndarray, ...]:
    """(dipole, van der Waals up, van der Waals down) strengths of every
    pair i < j, in ``_pairs`` order, for a (..., N, 3) stack of
    positions; each is a (..., N(N-1)/2) array. One distance R + delta_r
    and one angle theta per pair, the angle taken from the undisplaced
    separation.

    Dipolar exchange C3 (1 - 3 cos^2 theta) / R^3, with theta the polar
    angle of the separation from the quantization axis z: it vanishes at
    the magic angle cos theta = 1/sqrt(3) and is -2 C3 / R^3 along the
    axis. Van der Waals shifts -C6 / R^6 between like levels.

    Every output byte rests on these strengths, so each geometry of a
    stack gets the rounding of the one-vector law: |R| is a dot product,
    as ``np.linalg.norm`` takes it, and the powers are C ``pow`` on Python
    floats, which numpy's vectorised power differs from in the last bit."""
    i, j = _pairs(positions.shape[-2])
    sep = positions[..., j, :] - positions[..., i, :]
    r = np.sqrt((sep[..., None, :] @ sep[..., :, None])[..., 0, 0])
    cos_t = (sep[..., 2] / r).astype(object)
    r_eff = (r + delta_r).astype(object)
    strengths = C3 * (1.0 - 3.0 * cos_t**2) / r_eff**3, -C6_UP / r_eff**6, -C6_DOWN / r_eff**6
    return tuple(np.asarray(s, dtype=float) for s in strengths)


def _flip_flop(i: int, j: int) -> Term:
    """The term |up><down|_i |down><up|_j; ``hermitian_sum`` adds the
    conjugate, so the term with coefficient v is v (|ud><du| + h.c.)."""
    return (i, "up", "down"), (j, "down", "up")


def build_control_hz_diagonal(n_sites: int, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
    """Diagonal of the global control term sum_i S^z_i, as a real vector:
    (m - k)/2 on a configuration with m up and k down spins. Non-spin
    levels count zero."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    levels = site_levels(n_sites, basis.dim)
    spins = (levels == basis.index("up")).astype(int) - (levels == basis.index("down"))
    return 0.5 * spins.sum(axis=1)


def build_control_hz(n_sites: int, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
    """Global control term sum_i S^z_i as a dense matrix; its diagonal is
    ``build_control_hz_diagonal``."""
    return hermitian_sum((), (), build_control_hz_diagonal(n_sites, basis), n_sites, basis)


def drift_terms(
    model: ModelKind, basis: LocalBasis = SPIN_BASIS, positions: np.ndarray | None = None
) -> tuple[tuple[Term, ...], np.ndarray, np.ndarray]:
    """H0 as the ``hermitian_sum`` coupling list of its terms, their
    coefficients and its real diagonal.

    Ideal: J times the flip-flop of every bond, and a zero diagonal.
    Rydberg: the dipolar flip-flop of every pair, nearest-neighbor bonds
    first (the sums' rounding, and so every output byte, depends on that
    order), and the van der Waals shifts of like levels on the diagonal.
    ``positions``, a (G, N, 3) stack of atom positions for a Rydberg model
    (its delta_r kept), gives one row of coefficients and one diagonal per
    geometry from one evaluation of the pair law; the terms are the same
    for all of them. Without ``positions`` the triple is memoised per
    (model, basis), the last 32 of them, as models compare and hash by
    value, and every call returns the same triple: its terms are a tuple
    and its arrays are read-only.
    """
    if positions is None:
        return _model_terms(model, basis)
    return _drift_terms(model, basis, positions)


@functools.lru_cache(maxsize=32)
def _model_terms(model: ModelKind, basis: LocalBasis) -> tuple:
    terms, coeffs, diagonal = _drift_terms(model, basis, None)
    coeffs.flags.writeable = diagonal.flags.writeable = False
    return terms, coeffs, diagonal


def _drift_terms(model: ModelKind, basis: LocalBasis, positions: np.ndarray | None) -> tuple:
    n = model.n_sites
    if isinstance(model, IdealModel):
        terms = tuple(_flip_flop(i, i + 1) for i in range(n - 1))
        return terms, np.full(n - 1, model.coupling), np.zeros(basis.dim**n)
    if not isinstance(model, RydbergModel):
        raise TypeError(f"unknown model kind: {type(model).__name__}")
    geometry = model.geometry
    dipoles, *vdw = _pair_strengths(
        geometry.positions if positions is None else positions, geometry.delta_r
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    check_trace_stack({"basis states": basis.dim**n}, "diagonal", "entries")
    shifts = np.zeros(dipoles.shape[:-1] + (basis.dim**n,))
    for p, (i, j) in enumerate(pairs):
        for level, shift in zip(VDW_LEVELS, vdw):
            _, both = transition_indices(n, basis, ((i, level, level), (j, level, level)))
            shifts[..., both] += shift[..., p, None]
    bonds_first = sorted(range(len(pairs)), key=lambda p: pairs[p][1] > pairs[p][0] + 1)
    return tuple(_flip_flop(*pairs[p]) for p in bonds_first), dipoles[..., bonds_first], shifts


def assemble_system(model: ModelKind, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
    """Full drift Hamiltonian H0 for either model kind, as one dense
    ``hermitian_sum`` of ``drift_terms``; only the RK4 integrator
    ``dynamics.evolve_master`` needs the whole matrix.

    Ideal: open-boundary sum over bonds of (J/2)(sx sx + sy sy), that is J
    times the flip-flop |ud><du| + h.c. per bond, with a zero diagonal.
    Rydberg: dipolar exchange between every pair plus the van der Waals diagonal.
    """
    return hermitian_sum(*drift_terms(model, basis), model.n_sites, basis)
