"""Gradient-ascent pulse engineering (GRAPE) of the global field B(t).

The control problem has one scalar field B(t), piecewise constant over n
slices. Every drift Hamiltonian in scope commutes with the control term
Hz, so the evolution under any schedule collapses to a closed form:

    U(t) = exp(-i H t) exp(-i A(t) Hz),   A(t) = integral of B up to t

``ClosedFormPropagator`` owns that kernel on a block where Hz takes one
value, one eigendecomposition per block for every duration and field
area; it runs every stage of the staged protocol. ``SpinSectors`` and
``spin_overlaps`` sum it over the magnetization sectors of a chain
model, the whole spin path: ``optimize`` and the traces of ``dynamics``.
The landscape depends on a schedule only through (T, A), and its
gradient dPhi/dB_k = dt dPhi/dA is the same on every slice. So the
optimizer is gradient ascent on the scalar area A with a backtracking
line search (Khaneja et al., J. Magn. Reson. 172, 296 (2005),
specialized to this commuting control); accepted landscape values are
non-decreasing by construction. A drift that does not commute with Hz
raises ``GrapeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Literal, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import ModelKind, build_control_hz_diagonal, drift_terms
from .operators import MAX_TRACE_STACK, SPIN_BASIS, BlockPattern
from .targets import TargetForm, plus_product_state, target_state

__all__ = [
    "ControlSchedule",
    "GuessSpec",
    "GrapeConfig",
    "GrapeResult",
    "ScanResult",
    "ClosedFormPropagator",
    "SpinSectors",
    "spin_overlaps",
    "GrapeError",
    "gaussian_guess",
    "random_guess",
    "make_guess",
    "optimize",
    "reduce_field_winding",
    "scan_duration",
    "local_maxima",
    "schedule_to_record",
    "schedule_from_record",
    "save_result",
    "load_result",
]

#: Slice counts the guess generators default to.
GAUSSIAN_SLICES = 100
RANDOM_SLICES = 10

#: Standard deviation of the Gaussian guess, as a fraction of the duration.
GAUSSIAN_WIDTH = 0.1

#: Line search of ``optimize``. The running rate starts at INITIAL_RATE;
#: backtracking multiplies it by BACKTRACK_FACTOR until the landscape does
#: not decrease, and each accepted step multiplies it by GROW_FACTOR for
#: the next iteration. The search gives up below RATE_FLOOR. The ascent
#: stops after FLAT_ITERATIONS consecutive accepted steps that change the
#: landscape by less than STOP_TOLERANCE, or after MAX_ITERATIONS steps.
INITIAL_RATE = 1.0
BACKTRACK_FACTOR = 0.5
GROW_FACTOR = 2.0
RATE_FLOOR = 1e-6
MAX_ITERATIONS = 5000
STOP_TOLERANCE = 1e-8
FLAT_ITERATIONS = 10


class GrapeError(ValueError):
    """Raised when optimization cannot proceed (non-commuting drift,
    non-finite landscape)."""


def _check_duration(t_total: float) -> None:
    if not (np.isfinite(t_total) and t_total > 0.0):
        raise ValueError("t_total must be finite and positive")


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant field: duration ``t_total`` split into n equal
    slices with per-slice amplitudes in rad/us (or J units in ideal mode)."""

    t_total: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if amps.size < 1:
            raise ValueError("schedule needs at least one slice")
        if not np.all(np.isfinite(amps)):
            raise ValueError("slice amplitudes must be finite")
        _check_duration(self.t_total)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_slices(self) -> int:
        return self.amplitudes.size

    @property
    def dt(self) -> float:
        return self.t_total / self.n_slices

    @property
    def boundary_times(self) -> np.ndarray:
        """t_k = k dt at the n + 1 slice boundaries, from t_0 = 0."""
        return self.dt * np.arange(self.n_slices + 1)

    @property
    def boundary_areas(self) -> np.ndarray:
        """Field area A_k = dt (B_0 + ... + B_{k-1}) at each slice boundary."""
        return self.dt * np.concatenate(([0.0], np.cumsum(self.amplitudes)))

    @property
    def field_area(self) -> float:
        """Integrated field sum_k B_k dt; the landscape depends on the
        schedule only through (t_total, field_area) for commuting models."""
        return float(np.sum(self.amplitudes) * self.dt)


@dataclass(frozen=True)
class GuessSpec:
    """Initial-field family: "gaussian" (n = 100 default) or "random"
    (n = 10 default, seeded uniform amplitudes in [0, b0])."""

    kind: Literal["gaussian", "random"]
    b0: float
    seed: int = 1
    n_slices: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "random"):
            raise ValueError(f"unknown guess kind {self.kind!r}")
        # a trace holds one population per slice boundary
        if self.n_slices is not None and not 1 <= self.n_slices < MAX_TRACE_STACK:
            raise ValueError(
                f"n_slices must be in [1, {MAX_TRACE_STACK - 1}], so that its "
                f"boundaries fit the trace budget of {MAX_TRACE_STACK} populations"
            )

    def slice_count(self) -> int:
        if self.n_slices is not None:
            return self.n_slices
        return GAUSSIAN_SLICES if self.kind == "gaussian" else RANDOM_SLICES


@dataclass(frozen=True)
class GrapeConfig:
    model: ModelKind
    t_total: float
    guess: GuessSpec
    target: TargetForm

    def __post_init__(self) -> None:
        # refused before any guess is built or ascent started
        _check_duration(self.t_total)


@dataclass
class GrapeResult:
    schedule: ControlSchedule
    phi_history: list[float]
    final_population: float
    converged: bool

    @property
    def iterations(self) -> int:
        """Accepted ascent steps: the history holds the start and one
        landscape value per step."""
        return len(self.phi_history) - 1


@dataclass
class ScanResult:
    """Population curve over a duration grid plus its local maxima,
    ranked by population (dominant peak first)."""

    points: list[tuple[float, float]]
    maxima: list[tuple[float, float]]


def gaussian_guess(n_slices: int, t_total: float, b0: float) -> ControlSchedule:
    """Gaussian profile B0/(sqrt(2 pi) sigma) exp(-t_g^2 / 2 sigma^2) with
    sigma = GAUSSIAN_WIDTH.

    The slice midpoint k maps to t_g = (k + 0.5)/n - 0.5, so the profile
    is symmetric about the schedule center regardless of t_total.
    """
    sigma = GAUSSIAN_WIDTH
    k = np.arange(n_slices)
    t_g = (k + 0.5) / n_slices - 0.5
    amps = b0 / (np.sqrt(2.0 * np.pi) * sigma) * np.exp(-(t_g**2) / (2.0 * sigma**2))
    return ControlSchedule(t_total=t_total, amplitudes=amps)


def random_guess(n_slices: int, t_total: float, b0: float, seed: int) -> ControlSchedule:
    """Per-slice amplitudes b0 * xi with xi i.i.d. uniform on [0, 1]."""
    rng = np.random.default_rng(seed)
    amps = b0 * rng.uniform(0.0, 1.0, n_slices)
    return ControlSchedule(t_total=t_total, amplitudes=amps)


def make_guess(spec: GuessSpec, t_total: float) -> ControlSchedule:
    n = spec.slice_count()
    # GuessSpec admits only the two kinds
    if spec.kind == "gaussian":
        return gaussian_guess(n, t_total, spec.b0)
    return random_guess(n, t_total, spec.b0, spec.seed)


class ClosedFormPropagator:
    """exp(-i H t) exp(-i A Hz) applied to a state, for a Hermitian H on a
    block where the diagonal Hz takes one value h: exp(-i A Hz) is then the
    phase exp(-i A h), and one eigendecomposition of H serves every (t, A),
    broadcast against each other. Hz with several values raises
    ``GrapeError``, as H need not commute with it. One gufunc ``eigh``
    decomposes a (G, k, k) stack of drifts sharing ``hz_diag``; ``states``
    and ``overlaps`` put its axes first, then the shape of (t, A).
    """

    def __init__(self, h: np.ndarray, hz_diag: np.ndarray):
        if np.any(hz_diag != hz_diag[0]):
            raise GrapeError(f"drift does not commute with the control: a block "
                             f"spans Hz values {hz_diag.min()} to {hz_diag.max()}")
        self._hz = hz_diag[0]
        self._w, self._v = np.linalg.eigh(h)

    def _eigen_components(self, psi: np.ndarray, t, area) -> tuple[tuple, np.ndarray]:
        # the results' shape, and the (stack..., one flat axis of the (t, area)
        # pairs, k) components, built in place: the largest array of an ensemble
        t, area = np.broadcast_arrays(t, area)
        phases = np.reshape(t, (-1, 1)) * self._w[..., None, :]
        phases += np.reshape(area, (-1, 1)) * self._hz
        phases = phases.astype(complex)
        phases *= -1j
        np.exp(phases, out=phases)
        components = np.multiply((psi @ self._v.conj())[..., None, :], phases, out=phases)
        return self._v.shape[:-2] + t.shape, components

    def states(self, psi: np.ndarray, t, area) -> np.ndarray:
        """exp(-i H t) exp(-i A Hz) psi, one state per (t, area)."""
        shape, components = self._eigen_components(psi, t, area)
        return (components @ self._v.swapaxes(-1, -2)).reshape(shape + self._v.shape[-1:])

    def overlaps(self, target: np.ndarray, psi: np.ndarray, t, area) -> np.ndarray:
        """<target| exp(-i H t) exp(-i A Hz) |psi>, one per (t, area)."""
        shape, components = self._eigen_components(psi, t, area)
        return (components @ (target.conj() @ self._v)[..., None]).reshape(shape)


class SpinSectors:
    """A chain model's spin-basis drift H0 on the blocks that psi0 reaches,
    filled from ``chain.drift_terms`` through one ``operators.BlockPattern``
    and never formed as the 2^N matrix. H0 conserves the magnetization, so
    Hz = sum_i S^z_i takes one value h_b on each block b (``hz``), and
    <target| exp(-i H0 t) exp(-i A Hz) |psi0> = sum_b exp(-i A h_b) c_b(t),
    with c_b(t) = <target| P_b exp(-i H0 t) |psi0> the block's return
    amplitude (Gorin et al., Phys. Rep. 435, 33 (2006)): ``returns`` gives
    the c_b, ``spin_overlaps`` the sum. A (G, N, 3) stack of Rydberg atom
    ``positions`` gives one drift per geometry.
    """

    def __init__(self, model: ModelKind, psi0: np.ndarray, positions: np.ndarray | None = None):
        moves, coeffs, diagonals = drift_terms(model, SPIN_BASIS, positions)
        # one row per geometry: every position set's, or the model's own
        self._coeffs, self._diagonals = np.atleast_2d(coeffs), np.atleast_2d(diagonals)
        self._psi0 = psi0
        self._pattern = BlockPattern(moves, model.n_sites, SPIN_BASIS, np.flatnonzero(psi0))
        self._hz = build_control_hz_diagonal(model.n_sites, SPIN_BASIS)
        self.indices = self._pattern.indices
        self.hz = np.array([self._hz[idx[0]] for idx in self.indices])

    def returns(self, target: np.ndarray, t, rows=0) -> np.ndarray:
        """c_b(t) on the last axis, after the shape of t and, for a slice of
        geometry ``rows``, a first stack axis; an index gives one drift."""
        blocks = self._pattern.fill(self._coeffs[rows], self._diagonals[rows])
        return np.stack([
            ClosedFormPropagator(h, self._hz[idx]).overlaps(target[idx], self._psi0[idx], t, 0.0)
            for idx, h in blocks
        ], axis=-1)


def spin_overlaps(hz: np.ndarray, returns: np.ndarray, area) -> np.ndarray:
    """sum_b exp(-i A h_b) c_b over the last axis of ``returns`` (see
    ``SpinSectors``), with the field area A broadcast against the others."""
    return np.sum(np.exp(-1j * (np.asarray(area, float)[..., None] * hz)) * returns, axis=-1)


def optimize(config: GrapeConfig) -> GrapeResult:
    """Gradient ascent from |+>^N and the configured guess field, on the
    field area, towards the configured complete-graph target.

    The landscape depends on the schedule only through (T, A), so the
    ascent moves the scalar area A: each step adds rate * dPhi/dA, with
    a dimensionless rate that does not depend on how finely the field is
    sliced. The backtracking line search accepts only non-decreasing
    landscape values; its constants are the module's INITIAL_RATE,
    BACKTRACK_FACTOR, GROW_FACTOR and RATE_FLOOR. The ascent stops after
    FLAT_ITERATIONS consecutive accepted steps changing the landscape by
    less than STOP_TOLERANCE, at MAX_ITERATIONS, or when no acceptable
    step exists above the rate floor.

    The returned schedule is the guess shifted uniformly by the area
    gained, with whole 2 pi windings of its field area removed (see
    ``reduce_field_winding``); the landscape value is unchanged by the
    winding reduction.
    """
    n_sites = config.model.n_sites
    t = config.t_total
    sectors = SpinSectors(config.model, plus_product_state(n_sites))
    returns = sectors.returns(target_state(config.target, n_sites), t)
    # the overlap and its area derivative, one row each, formed once per run
    stacked = np.stack([returns, -1j * sectors.hz * returns])

    def landscape(area: float) -> tuple[float, float]:
        overlap, d_overlap = stacked @ np.exp(-1j * (area * sectors.hz))
        return float(abs(overlap) ** 2), float(2.0 * np.real(np.conj(overlap) * d_overlap))

    guess = make_guess(config.guess, t)

    area = guess.field_area
    phi, slope = landscape(area)
    if not (np.isfinite(phi) and np.isfinite(slope)):
        raise GrapeError("non-finite landscape or gradient at the starting point")
    history = [phi]

    rate = INITIAL_RATE
    flat = 0
    converged = slope == 0.0
    while not converged and len(history) <= MAX_ITERATIONS:
        while rate >= RATE_FLOOR:
            trial = area + rate * slope
            phi_trial, slope_trial = landscape(trial)
            if not np.isfinite(phi_trial):
                raise GrapeError(f"non-finite landscape during line search at rate {rate}")
            if phi_trial >= phi:
                break
            rate *= BACKTRACK_FACTOR
        else:
            converged = True  # no ascent step above the rate floor
            break
        if not np.isfinite(slope_trial):
            raise GrapeError("non-finite gradient after accepted step")
        flat = flat + 1 if abs(phi_trial - phi) < STOP_TOLERANCE else 0
        converged = flat >= FLAT_ITERATIONS
        area, phi, slope = trial, phi_trial, slope_trial
        history.append(phi)
        rate *= GROW_FACTOR

    schedule = reduce_field_winding(
        replace(guess, amplitudes=guess.amplitudes + (area - guess.field_area) / t)
    )
    final_population, _ = landscape(schedule.field_area)
    return GrapeResult(
        schedule=schedule,
        phi_history=history,
        final_population=final_population,
        converged=converged,
    )


def reduce_field_winding(schedule: ControlSchedule) -> ControlSchedule:
    """Subtract whole 2 pi windings of the field area as a uniform offset.

    The control term's eigenvalue ladder is integer spaced, so two
    schedules whose areas differ by a multiple of 2 pi produce the same
    landscape value; gradient ascent is free to wander many windings up
    the uniform direction. The windings are not free under noise: a static
    relative amplitude error scales the whole area, so each extra winding
    widens the spread of areas the shots see. With a 5 % error the N=3
    table schedule keeps population 0.982 at its area in [-pi, pi] but
    0.865 one winding up; the representative in [-pi, pi] is the robust
    one.
    """
    windings = int(np.round(schedule.field_area / (2.0 * np.pi)))
    if windings == 0:
        return schedule
    offset = 2.0 * np.pi * windings / schedule.t_total
    return replace(schedule, amplitudes=schedule.amplitudes - offset)


#: Largest duration grid of ``scan_duration``. One grid point is one
#: ``optimize`` run: 1.1-2.4 ms at N=3 and N=6 in either mode and from
#: either guess (71-point scans, one thread of a 2-vCPU Xeon), so a grid
#: at the cap takes 10-25 s.
MAX_SCAN_STEPS = 10_000


def scan_duration(
    config: GrapeConfig, t_min: float, t_max: float, steps: int
) -> ScanResult:
    """Optimize at each duration on a uniform grid of 2 to MAX_SCAN_STEPS
    points.

    Returns the (T, optimized population) curve in increasing T and its
    interior local maxima ranked by population, dominant first.
    """
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise ValueError(f"the duration grid needs 2 to {MAX_SCAN_STEPS} points, not {steps}")
    grid = np.linspace(t_min, t_max, steps)
    points = []
    for t in grid:
        result = optimize(replace(config, t_total=float(t)))
        points.append((float(t), result.final_population))
    maxima = [points[i] for (i,) in local_maxima([p for _, p in points])]
    return ScanResult(points=points, maxima=maxima)


def local_maxima(values) -> list[tuple[int, ...]]:
    """Grid positions of the interior local maxima of an n-d grid, ranked.

    A maximum is at least every neighbour in its 3 x ... x 3 window and
    above one of them. The ranking is by value rounded to 12 decimals,
    dominant first, then by grid position, so values that differ in their
    last bits only (a +B / -B pair, say) keep the grid's order. A grid
    with fewer than 3 points on an axis has no interior and no maxima.
    """
    values = np.asarray(values, dtype=float)
    if min(values.shape) < 3:
        return []
    patches = sliding_window_view(values, (3,) * values.ndim)
    window = tuple(range(values.ndim, 2 * values.ndim))
    centre = values[(slice(1, -1),) * values.ndim]
    peak = (centre == patches.max(axis=window)) & (centre > patches.min(axis=window))
    # np.argwhere lists positions in grid order, which the stable sort keeps
    order = np.argsort(-np.round(centre[peak], 12), kind="stable")
    return [tuple(int(i) + 1 for i in pos) for pos in np.argwhere(peak)[order]]


def schedule_to_record(
    schedule: ControlSchedule,
    mode: str,
    n_sites: int,
    seed: int | None,
    constants_version: str,
    phi_history: list[float] | None = None,
    final_population: float | None = None,
) -> dict:
    """JSON-ready record; floats survive the round trip bit for bit."""
    return {
        "mode": mode,
        "N": n_sites,
        "T": schedule.t_total,
        "n": schedule.n_slices,
        "amplitudes": [float(a) for a in schedule.amplitudes],
        "phi_history": [float(p) for p in (phi_history or [])],
        "final_population": final_population,
        "seed": seed,
        "constants_version": constants_version,
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def schedule_from_record(record: dict) -> ControlSchedule:
    """The schedule of a ``schedule_to_record`` record: ValueError unless it
    maps a numeric T, an integer n and a list of n numbers in amplitudes."""
    if not isinstance(record, Mapping):
        raise ValueError(f"a schedule record is a JSON object, not a {type(record).__name__}")
    t, n, amplitudes = record.get("T"), record.get("n"), record.get("amplitudes")
    if not _is_number(t):
        raise ValueError(f"schedule record needs a numeric T, not {t!r}")
    if not (_is_number(n) and isinstance(n, int)):
        raise ValueError(f"schedule record needs an integer n, not {n!r}")
    if not (isinstance(amplitudes, list) and all(map(_is_number, amplitudes))):
        raise ValueError("schedule record needs a list of numbers in amplitudes")
    schedule = ControlSchedule(t_total=t, amplitudes=np.array(amplitudes, dtype=float))
    if schedule.n_slices != n:
        raise ValueError("slice count does not match amplitude list")
    return schedule


def save_result(path, record: dict) -> None:
    """Write a JSON record (indent 1, trailing newline); every JSON output
    of the package goes through here."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def load_result(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
