"""Hamiltonian builders: ideal XX chain, global-field control term, and the
Rydberg dipolar chain with its long-range error terms.

Two drift models are supported. The ideal model is a nearest-neighbor XX
chain with a single coupling J (dimensionless units, J = 1 by default).
The Rydberg model derives every pairwise coupling from 3D atom positions:
resonant dipole-dipole exchange C3 (1 - 3 cos^2 theta) / R^3 between
opposite spin levels, and van der Waals shifts -C6 / R^6 between like
levels. Both drifts commute with the control term Hz = sum_i S^z_i, which
is what makes the exact GRAPE gradient available.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .operators import SPIN_BASIS, LocalBasis, site_levels, transition_indices

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "ChainGeometry",
    "IdealModel",
    "RydbergModel",
    "ModelKind",
    "dipole_strength",
    "vdw_strength",
    "build_xx_chain",
    "build_control_hz",
    "build_error_hamiltonian",
    "build_rydberg_system",
    "assemble_system",
]

TWO_PI = 2.0 * np.pi

#: Minimum admissible interatomic distance, in um (1 nm).
MIN_DISTANCE = 1e-3


@dataclass(frozen=True)
class PhysicalConstants:
    """Interaction constants for the Rydberg chain.

    Units are angular: rad/us times um^3 (c3) or um^6 (c6_up, c6_down).
    ``version`` tags every serialized artifact so numbers stay traceable
    to the constants that produced them.
    """

    c3: float = TWO_PI * 8780.0
    c6_up: float = -TWO_PI * 4161550.0
    c6_down: float = TWO_PI * 3452600.0
    spacing: float = 19.3
    version: str = "rydberg-constants-v1"


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ChainGeometry:
    """Atom positions plus interaction constants and quantization axis.

    positions : (N, 3) array, um. The default regular chain places atom i
        at (0, 0, i * spacing).
    delta_r : deterministic offset, um, added to every pairwise distance
        in the coupling laws while leaving all angles unchanged. Used for
        the systematic distance-mismatch sweeps; 0 for the nominal chain.
    """

    positions: np.ndarray
    constants: PhysicalConstants = DEFAULT_CONSTANTS
    quantization_axis: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 1.0])
    )
    delta_r: float = 0.0

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
            raise ValueError("positions must be an (N >= 2, 3) array")
        object.__setattr__(self, "positions", pos)
        axis = np.asarray(self.quantization_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ValueError("quantization axis must be nonzero")
        object.__setattr__(self, "quantization_axis", axis / norm)
        for i in range(pos.shape[0]):
            for j in range(i + 1, pos.shape[0]):
                if np.linalg.norm(pos[j] - pos[i]) < MIN_DISTANCE:
                    raise ValueError(f"atoms {i} and {j} closer than 1 nm")

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def regular(
        cls,
        n_sites: int,
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
        spacing: float | None = None,
    ) -> "ChainGeometry":
        """Evenly spaced chain along the quantization axis z."""
        r = constants.spacing if spacing is None else spacing
        pos = np.zeros((n_sites, 3))
        pos[:, 2] = r * np.arange(n_sites)
        return cls(positions=pos, constants=constants)

    def with_delta_r(self, delta_r_um: float) -> "ChainGeometry":
        return replace(self, delta_r=delta_r_um)


@dataclass(frozen=True)
class IdealModel:
    """Nearest-neighbor XX chain with uniform coupling J."""

    n_sites: int
    coupling: float = 1.0

    def __post_init__(self) -> None:
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


def _pair_distance_angle(geometry: ChainGeometry, i: int, j: int) -> tuple[float, float]:
    # returns (R + delta_r, cos theta); theta from the undisplaced separation
    sep = geometry.positions[j] - geometry.positions[i]
    r = float(np.linalg.norm(sep))
    cos_t = float(np.dot(sep, geometry.quantization_axis) / r)
    r_eff = r + geometry.delta_r
    if r_eff < MIN_DISTANCE:
        raise ValueError(f"effective distance for pair ({i},{j}) below 1 nm")
    return r_eff, cos_t


def dipole_strength(geometry: ChainGeometry, i: int, j: int) -> float:
    """Resonant dipole-dipole coupling C3 (1 - 3 cos^2 theta) / R^3.

    theta is the polar angle between the pair separation and the
    quantization axis. Vanishes at the magic angle cos theta = 1/sqrt(3);
    negative (-2 C3 / R^3) for a chain along the axis.
    """
    r_eff, cos_t = _pair_distance_angle(geometry, i, j)
    return geometry.constants.c3 * (1.0 - 3.0 * cos_t**2) / r_eff**3


def vdw_strength(geometry: ChainGeometry, i: int, j: int, level: str) -> float:
    """Van der Waals pair shift -C6 / R^6 for like levels ("up" or "down")."""
    r_eff, _ = _pair_distance_angle(geometry, i, j)
    if level == "up":
        c6 = geometry.constants.c6_up
    elif level == "down":
        c6 = geometry.constants.c6_down
    else:
        raise ValueError(f"no van der Waals constant for level {level!r}")
    return -c6 / r_eff**6


def _hopping_hamiltonian(hops, n_sites: int, basis: LocalBasis) -> np.ndarray:
    """Sum over (strength, i, j) of strength (|ud><du| + h.c.); the flip-flop
    |up><down|_i |down><up|_j is an index map, its conjugate the swapped one."""
    # indices first: they refuse an over-budget dimension before h exists
    flips = [
        (strength, *transition_indices(n_sites, basis, {i: ("up", "down"), j: ("down", "up")}))
        for strength, i, j in hops
    ]
    dim = basis.dim**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for strength, dst, src in flips:
        h[dst, src] += strength
        h[src, dst] += strength
    return h


def build_xx_chain(
    n_sites: int, coupling: float, basis: LocalBasis = SPIN_BASIS
) -> np.ndarray:
    """Open-boundary sum over bonds of (J/2)(sx sx + sy sy).

    Equivalently J times the flip-flop hopping |ud><du| + h.c. per bond.
    Conserves the total excitation number.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    hops = [(coupling, i, i + 1) for i in range(n_sites - 1)]
    return _hopping_hamiltonian(hops, n_sites, basis)


def build_control_hz(n_sites: int, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
    """Global control term sum_i S^z_i; diagonal, eigenvalue (m - k)/2 on a
    configuration with m up and k down spins. Non-spin levels count zero."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    levels = site_levels(n_sites, basis.dim)
    spins = (levels == basis.index("up")).astype(int) - (levels == basis.index("down"))
    return np.diag(0.5 * spins.sum(axis=1).astype(complex))


def build_error_hamiltonian(
    geometry: ChainGeometry, basis: LocalBasis = SPIN_BASIS
) -> np.ndarray:
    """Everything beyond the nearest-neighbor exchange.

    Van der Waals shifts act between every pair; the dipolar exchange
    appears here only for non-adjacent pairs (j > i + 1), the adjacent
    part being the system Hamiltonian itself. For N = 2 the result is
    purely van der Waals.
    """
    n = geometry.n_sites
    shifts = np.zeros(basis.dim**n)
    hops = []
    for i in range(n):
        for j in range(i + 1, n):
            for level in ("up", "down"):
                _, both = transition_indices(n, basis, {i: (level, level), j: (level, level)})
                shifts[both] += vdw_strength(geometry, i, j, level)
            if j > i + 1:
                hops.append((dipole_strength(geometry, i, j), i, j))
    h = _hopping_hamiltonian(hops, n, basis)
    h[np.diag_indices(len(h))] += shifts
    return h


def build_rydberg_system(
    geometry: ChainGeometry, basis: LocalBasis = SPIN_BASIS
) -> np.ndarray:
    """Nearest-neighbor dipolar exchange with per-bond strengths."""
    n = geometry.n_sites
    hops = [(dipole_strength(geometry, i, i + 1), i, i + 1) for i in range(n - 1)]
    return _hopping_hamiltonian(hops, n, basis)


def assemble_system(model: ModelKind, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
    """Full drift Hamiltonian H0 for either model kind.

    Ideal: the bare XX chain. Rydberg: nearest-neighbor dipolar exchange
    plus the long-range error Hamiltonian. In both cases H0 commutes with
    build_control_hz to better than 1e-12 (diagonal magnetization blocks).
    """
    if isinstance(model, IdealModel):
        return build_xx_chain(model.n_sites, model.coupling, basis)
    if isinstance(model, RydbergModel):
        return build_rydberg_system(model.geometry, basis) + build_error_hamiltonian(
            model.geometry, basis
        )
    raise TypeError(f"unknown model kind: {type(model).__name__}")
