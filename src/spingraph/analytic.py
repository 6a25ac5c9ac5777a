"""Closed-form N = 3 benchmark under a constant field.

The three-site chain with Hamiltonian

    H_con = sum_bonds J (sx sx + sy sy)  -  B sum_i S^z_i

admits closed-form amplitudes from the plus-product start. Note the two
conventions baked into this module:

* The coupling here carries NO factor 1/2, so against the ideal chain
  (``IdealModel``) the equivalent coupling is 2 J (see
  ``constant_field_hamiltonian``).
* The printed amplitude list pairs e^{-3iBt/2} with the all-down
  configuration, which corresponds to the field entering with a minus
  sign relative to this package's S^z convention. The propagation oracle
  fixes that sign; it is recorded as ``FIELD_SIGN`` and applied when
  building H_con rather than by altering the printed formulas.

Amplitudes are returned in the documented configuration order
(down-down-down, down-down-up, down-up-down, down-up-up, up-down-down,
up-down-up, up-up-down, up-up-up), i.e. all-down first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import IdealModel, assemble_system, build_control_hz
from .operators import evolve_unitary
from .targets import complete_graph_state, plus_product_state

__all__ = [
    "FIELD_SIGN",
    "PRINTED_TO_CANONICAL",
    "ConstantFieldSolution",
    "analytic_n3_amplitudes",
    "analytic_state",
    "constant_field_hamiltonian",
    "constant_field_params",
    "constant_field_population",
    "propagated_population",
    "scan_constant_field",
]

SQRT2 = np.sqrt(2.0)

#: Sign with which B enters H_con relative to +B * sum S^z; determined by
#: matching the closed forms against numerical propagation.
FIELD_SIGN = -1.0

#: printed index -> computational basis index (up = bit 0).
PRINTED_TO_CANONICAL = (7, 6, 5, 4, 3, 2, 1, 0)


@dataclass(frozen=True)
class ConstantFieldSolution:
    """One member of the constant-field solution family."""

    b: float
    t_star: float
    c1: int
    c2: int
    global_phase: complex = -1.0j


def analytic_n3_amplitudes(j: float, b: float, t: float) -> np.ndarray:
    """Eight closed-form amplitudes, printed configuration order.

    ``j`` is the coupling of H_con (no 1/2); all frequencies below are
    multiples of 4 j / sqrt(2) = 2 sqrt(2) j, the single-excitation
    bandwidth of the open three-site chain at this coupling.
    """
    e = np.exp
    psi1 = e(-1.5j * t * b) / (2.0 * SQRT2)
    psi2 = (
        e(-0.5j * t * (4.0 * SQRT2 * j + b))
        * (2.0 + SQRT2 - (SQRT2 - 2.0) * e(4.0j * SQRT2 * j * t))
        / (8.0 * SQRT2)
    )
    psi3 = (
        e(-0.5j * t * (4.0 * SQRT2 * j + b))
        * (1.0 + SQRT2 - (SQRT2 - 1.0) * e(4.0j * SQRT2 * j * t))
        / (4.0 * SQRT2)
    )
    psi4 = (
        0.25
        * e(0.5j * t * b)
        * (SQRT2 * np.cos(4.0 * j * t / SQRT2) - 1.0j * np.sin(4.0 * j * t / SQRT2))
    )
    psi6 = (
        0.25
        * e(0.5j * t * b)
        * (SQRT2 * np.cos(4.0 * j * t / SQRT2) - 2.0j * np.sin(4.0 * j * t / SQRT2))
    )
    psi8 = e(1.5j * t * b) / (2.0 * SQRT2)
    return np.array([psi1, psi2, psi3, psi4, psi2, psi6, psi4, psi8])


def analytic_state(j: float, b: float, t: float) -> np.ndarray:
    """Closed-form state reordered into the computational basis."""
    printed = analytic_n3_amplitudes(j, b, t)
    out = np.zeros(8, dtype=complex)
    out[list(PRINTED_TO_CANONICAL)] = printed
    return out


def constant_field_hamiltonian(j: float, b: float) -> np.ndarray:
    """H_con on 3 sites; coupling without the 1/2, field sign resolved."""
    return assemble_system(IdealModel(3, 2.0 * j)) + FIELD_SIGN * b * build_control_hz(3)


def constant_field_params(c1: int, c2: int, j: float) -> ConstantFieldSolution:
    """Field and arrival time driving the plus-product start onto the
    complete graph state, for any integers c2 >= c1."""
    if c2 < c1:
        raise ValueError("requires c2 >= c1")
    if j <= 0:
        raise ValueError("requires j > 0")
    b = 4.0 * j * (1.0 - 4.0 * c1) / (SQRT2 * (2.0 * c1 - 2.0 * c2 - 1.0))
    t_star = SQRT2 * np.pi * (1.0 + 2.0 * (c2 - c1)) / (4.0 * j)
    return ConstantFieldSolution(b=b, t_star=t_star, c1=c1, c2=c2)


def constant_field_population(j: float, b: float, t: float) -> float:
    """Graph-state population from the closed forms at (b, t)."""
    psi = analytic_state(j, b, t)
    target = complete_graph_state(3)
    return float(abs(np.vdot(target, psi)) ** 2)


def propagated_population(j: float, b: float, t: float) -> float:
    """Same quantity via numerical propagation; the independent check."""
    psi = evolve_unitary(constant_field_hamiltonian(j, b), t, plus_product_state(3))
    target = complete_graph_state(3)
    return float(abs(np.vdot(target, psi)) ** 2)


def scan_constant_field(
    j: float, b_grid: np.ndarray, t_grid: np.ndarray
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """Closed-form population over a (B, t) grid.

    Returns the grid (len(b_grid) x len(t_grid)) and its strict interior
    local maxima as (b, t, population) rows. The analytic family points
    land on maxima of any grid that contains them.
    """
    b_grid = np.atleast_1d(np.asarray(b_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if b_grid.size == 0 or t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    pops = np.zeros((b_grid.size, t_grid.size))
    for i, b in enumerate(b_grid):
        for k, t in enumerate(t_grid):
            pops[i, k] = constant_field_population(j, b, t)
    maxima = []
    for i in range(1, b_grid.size - 1):
        for k in range(1, t_grid.size - 1):
            patch = pops[i - 1 : i + 2, k - 1 : k + 2]
            if pops[i, k] == np.max(patch) and pops[i, k] > np.min(patch):
                maxima.append((float(b_grid[i]), float(t_grid[k]), float(pops[i, k])))
    maxima.sort(key=lambda row: -row[2])
    return pops, maxima
