"""Closed-form N = 3 benchmark under a constant field.

The three-site chain with Hamiltonian

    H_con = sum_bonds J (sx sx + sy sy)  -  B sum_i S^z_i

admits closed-form amplitudes from the plus-product start. Note the two
conventions baked into this module:

* The coupling here carries NO factor 1/2, so against the ideal chain
  (``IdealModel``) the equivalent coupling is 2 J.
* The printed amplitude list pairs e^{-3iBt/2} with the all-down
  configuration, which corresponds to the field entering with a minus
  sign relative to this package's S^z convention. The kernel check
  (``propagated_population``: field area FIELD_SIGN B t through
  ``grape.SpinSectors``, the spin path's sector sum) fixes that sign; the
  printed formulas are left as they are. Every function of (b, t) broadcasts.

Amplitudes are returned in the documented configuration order
(down-down-down, down-down-up, down-up-down, down-up-up, up-down-down,
up-down-up, up-up-down, up-up-up), i.e. all-down first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import IdealModel
from .grape import SpinSectors, local_maxima, spin_overlaps
from .targets import complete_graph_state, plus_product_state

__all__ = [
    "FIELD_SIGN",
    "PRINTED_TO_CANONICAL",
    "ConstantFieldSolution",
    "analytic_n3_amplitudes",
    "analytic_state",
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
    """One member of the constant-field solution family: the field and
    the arrival time."""

    b: float
    t_star: float


def analytic_n3_amplitudes(j: float, b, t) -> np.ndarray:
    """Eight closed-form amplitudes, printed configuration order, on a
    last axis after the broadcast shape of (b, t).

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
    amps = (psi1, psi2, psi3, psi4, psi2, psi6, psi4, psi8)
    return np.stack(np.broadcast_arrays(*amps), axis=-1)


def analytic_state(j: float, b, t) -> np.ndarray:
    """Closed-form state reordered into the computational basis."""
    printed = analytic_n3_amplitudes(j, b, t)
    out = np.empty_like(printed)
    out[..., list(PRINTED_TO_CANONICAL)] = printed
    return out


def constant_field_params(c1: int, c2: int, j: float) -> ConstantFieldSolution:
    """Field and arrival time driving the plus-product start onto the
    complete graph state, for any integers c2 >= c1."""
    if c2 < c1:
        raise ValueError("requires c2 >= c1")
    if not (np.isfinite(j) and j > 0):
        raise ValueError("requires a finite j > 0")
    with np.errstate(over="ignore"):  # an overflow is refused below
        b = 4.0 * j * (1.0 - 4.0 * c1) / (SQRT2 * (2.0 * c1 - 2.0 * c2 - 1.0))
        t_star = SQRT2 * np.pi * (1.0 + 2.0 * (c2 - c1)) / (4.0 * j)
    if not (np.isfinite(b) and np.isfinite(t_star)):
        raise ValueError(f"j = {j!r} puts the field or the arrival time out of float range")
    return ConstantFieldSolution(b=b, t_star=t_star)


def constant_field_population(j: float, b, t):
    """Graph-state population from the closed forms at (b, t)."""
    return np.abs(analytic_state(j, b, t) @ complete_graph_state(3).conj()) ** 2


def propagated_population(j: float, b, t):
    """Same quantity propagated by the package's sector sum from |+>^3;
    the independent check."""
    sectors = SpinSectors(IdealModel(3, 2.0 * j), plus_product_state(3))
    returns = sectors.returns(complete_graph_state(3), t)
    return np.abs(spin_overlaps(sectors.hz, returns, FIELD_SIGN * b * t)) ** 2


def scan_constant_field(
    j: float, b_grid: np.ndarray, t_grid: np.ndarray
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """Closed-form population over a (B, t) grid.

    Returns the grid (len(b_grid) x len(t_grid)) and its interior local
    maxima as (b, t, population) rows, ranked by ``grape.local_maxima``.
    The analytic family points land on maxima of any grid that contains
    them.
    """
    b_grid = np.atleast_1d(np.asarray(b_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if b_grid.size == 0 or t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    pops = constant_field_population(j, b_grid[:, None], t_grid[None, :])
    maxima = [
        (float(b_grid[i]), float(t_grid[k]), float(pops[i, k])) for i, k in local_maxima(pops)
    ]
    return pops, maxima
