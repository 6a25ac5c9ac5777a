"""Gradient-ascent pulse engineering (GRAPE) of the global field B(t).

The control problem has one scalar field B(t), piecewise constant over n
slices. Every drift Hamiltonian in scope commutes with the control term
Hz, so the evolution under any schedule collapses to a closed form:

    U(t) = exp(-i H t) exp(-i A(t) Hz),   A(t) = integral of B up to t

``ClosedFormPropagator`` owns that kernel on blocks where Hz takes one
value each, one stacked eigendecomposition of equal-size blocks for every
duration and field area. Every evolution is such a stage: ``_stage_terms``
assembles it, ``_build_kernels`` decomposes it and ``_stage_kernels``
memoises the last 8. The spin path is the drive-free stage on the spin
basis: ``SpinSectors`` and ``spin_overlaps`` sum it over the
magnetization sectors of a chain model, for ``optimize``,
``scan_duration`` and the traces of ``dynamics``, which take all slice
boundaries as one baby-step giant-step product.
The landscape depends on a schedule only through (T, A), and its
gradient dPhi/dB_k = dt dPhi/dA is the same on every slice. So the
optimizer is gradient ascent on the scalar area A with a backtracking
line search (Khaneja et al., J. Magn. Reson. 172, 296 (2005),
specialized to this commuting control); accepted landscape values are
non-decreasing by construction. A drift that does not commute with Hz
raises ``GrapeError``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Literal, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import ModelKind, build_control_hz_diagonal, drift_terms
from .operators import SPIN_BASIS, block_pattern, check_trace_stack
from .targets import TargetForm, plus_product_state, target_state

__all__ = [
    "ControlSchedule",
    "boundary_areas",
    "GuessSpec",
    "GrapeConfig",
    "GrapeResult",
    "ScanResult",
    "ClosedFormPropagator",
    "SpinSectors",
    "check_return_budget",
    "spin_overlaps",
    "GrapeError",
    "gaussian_guess",
    "random_guess",
    "make_guess",
    "optimize",
    "reduce_field_winding",
    "check_scan_grid",
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


def _check_duration(t_total: float, name: str = "t_total") -> None:
    if not (np.isfinite(t_total) and t_total > 0.0):
        raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant field: duration ``t_total`` split into n equal
    slices with per-slice amplitudes in rad/us (or J units in ideal mode).
    Two schedules are equal when their durations and their amplitudes
    (``np.array_equal``) are; the hash agrees with that equality."""

    t_total: float
    amplitudes: np.ndarray
    #: Field area A_k = dt (B_0 + ... + B_{k-1}) at each slice boundary, read-only.
    boundary_areas: np.ndarray = field(init=False, repr=False, compare=False)

    # written out: the generated ones would compare and hash the arrays
    def __eq__(self, other) -> bool:
        if not isinstance(other, ControlSchedule):
            return NotImplemented
        return self.t_total == other.t_total and np.array_equal(self.amplitudes, other.amplitudes)

    def __hash__(self) -> int:
        return hash((self.t_total, tuple(self.amplitudes.tolist())))

    def __post_init__(self) -> None:
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        if amps.size < 1:
            raise ValueError("schedule needs at least one slice")
        _check_duration(self.t_total)
        object.__setattr__(self, "amplitudes", amps)
        areas = boundary_areas(self.t_total, amps)
        areas.flags.writeable = False
        object.__setattr__(self, "boundary_areas", areas)

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
    def field_area(self) -> float:
        """Integrated field sum_k B_k dt; the landscape depends on the
        schedule only through (t_total, field_area) for commuting models."""
        return float(np.sum(self.amplitudes) * self.dt)


def boundary_areas(t_total: float, amplitudes: np.ndarray) -> np.ndarray:
    """Field areas A_k = dt (B_0 + ... + B_{k-1}) at the n + 1 slice
    boundaries of each schedule of a (..., n) amplitude stack over one
    duration, dt = t_total / n: one running sum along the last axis.
    Refuses a stack with any non-finite amplitude or area."""
    dt = t_total / amplitudes.shape[-1]
    zeros = np.zeros(amplitudes.shape[:-1] + (1,))
    with np.errstate(all="ignore"):  # a non-finite area is refused below
        areas = dt * np.concatenate((zeros, np.cumsum(amplitudes, axis=-1)), axis=-1)
    if not np.isfinite(areas).all():
        raise ValueError("slice amplitudes and their field areas must be finite")
    return areas


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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")
        if self.n_slices is not None:
            if self.n_slices < 1:
                raise ValueError(f"n_slices must be at least 1, not {self.n_slices}")
            # a trace holds one population per slice boundary
            check_trace_stack({"slice boundaries": self.n_slices + 1}, "trace")

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
    with np.errstate(over="ignore"):  # ControlSchedule refuses an amplitude that overflows
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
    broadcast against each other.

    One gufunc ``eigh`` decomposes a (..., k, k) stack of blocks, such as
    the equal-size blocks of an ``operators.BlockPattern`` fill. A real
    symmetric stack, which every real coupling fills, goes through the
    real-symmetric driver and keeps real eigenvectors; a complex Hermitian
    one through the Hermitian driver. ``hz_diag``, the states and the
    targets broadcast against the stack's (..., k) rows, so each block
    takes its own Hz value and input row; a block on which Hz takes two
    values raises ``GrapeError``, as H need not commute with Hz there.
    ``states`` and ``overlaps`` put the stack axes first, then the shape
    of (t, A). ``overlaps`` folds the input state and the target into one
    weight row W = (psi . V*) (target* . V) per eigenvector and evaluates
    the durations t + s for every offset s at once: with the phase rows
    big = exp(-i (t w + A h)) and small = exp(-i s w), the overlaps are the
    one product big @ (W small)^T. A single duration per (t, A) is the
    offset s = 0, whose row of ones leaves W as it is; ``SpinSectors``
    lays a uniform grid out as giant steps t and baby steps s. Every array
    a propagator holds is read-only, so one can be shared, as the kernels
    of the ``_stage_kernels`` memo are.
    """

    def __init__(self, h: np.ndarray, hz_diag: np.ndarray):
        spans = np.any(hz_diag != hz_diag[..., :1], axis=-1)
        if np.any(spans):
            values = hz_diag[np.unravel_index(np.argmax(spans), spans.shape)]
            raise GrapeError(f"drift does not commute with the control: a block "
                             f"spans Hz values {values.min()} to {values.max()}")
        self._hz = hz_diag[..., 0, None, None]
        self._w, self._v = np.linalg.eigh(h)
        for array in (self._hz, self._w, self._v):
            array.flags.writeable = False

    def _phases(self, t, area) -> tuple[tuple, np.ndarray]:
        # the results' shape, and the (stack..., one flat axis of the (t, area)
        # pairs, k) phases, built in place
        t, area = np.broadcast_arrays(t, area)
        phases = np.reshape(t, (-1, 1)) * self._w[..., None, :]
        phases += np.reshape(area, (-1, 1)) * self._hz
        phases = phases.astype(complex)
        phases *= -1j
        np.exp(phases, out=phases)
        return self._v.shape[:-2] + t.shape, phases

    def states(self, psi: np.ndarray, t, area) -> np.ndarray:
        """exp(-i H t) exp(-i A Hz) psi, one state per (t, area)."""
        shape, phases = self._phases(t, area)
        components = np.multiply(psi[..., None, :] @ self._v.conj(), phases, out=phases)
        return (components @ self._v.swapaxes(-1, -2)).reshape(shape + self._v.shape[-1:])

    def overlaps(self, target: np.ndarray, psi: np.ndarray, t, area, offsets=0.0) -> np.ndarray:
        """<target| exp(-i H (t + s)) exp(-i A Hz) |psi>, one per (t, area)
        and time offset s, in the shape of (t, area) followed by that of
        ``offsets``."""
        shape, big = self._phases(t, area)
        offsets = np.asarray(offsets, dtype=float)
        small = np.exp(-1j * (np.reshape(offsets, (-1, 1)) * self._w[..., None, :]))
        weights = (psi[..., None, :] @ self._v.conj()) * (target.conj()[..., None, :] @ self._v)
        return (big @ (weights * small).swapaxes(-1, -2)).reshape(shape + offsets.shape)


class SpinSectors:
    """A chain model's spin-basis drift H0 on the blocks that psi0 reaches,
    filled from ``chain.drift_terms`` through one ``operators.BlockPattern``
    and never formed as the 2^N matrix. H0 conserves the magnetization, so
    Hz = sum_i S^z_i takes one value h_b on each block b (``hz``), and
    <target| exp(-i H0 t) exp(-i A Hz) |psi0> = sum_b exp(-i A h_b) c_b(t),
    with c_b(t) = <target| P_b exp(-i H0 t) |psi0> the block's return
    amplitude (Gorin et al., Phys. Rep. 435, 33 (2006)): ``returns`` gives
    the c_b at any durations, ``grid_returns`` on the uniform grid of a
    schedule's slice boundaries, given as (dt, n + 1) and never inferred
    from the times, and ``spin_overlaps`` the sum, all listing the blocks
    by their smallest basis index. Both evaluate through the one
    ``ClosedFormPropagator.overlaps`` product, arbitrary durations as its
    single-offset case. Sectors m and N - m have one size, so one
    ``eigh`` decomposes both (one per block size, see
    ``operators.BlockPattern``). A (G, N, 3) stack of Rydberg atom
    ``positions`` gives one drift per geometry.

    The block layout comes from ``operators.block_pattern``, memoised per
    (terms, N, basis, support of psi0) for the last 32 layouts, and the
    model's own kernels, for every duration and target, from the
    ``_stage_kernels`` memo, as the drive-free stage on SPIN_BASIS.
    """

    def __init__(self, model: ModelKind, psi0: np.ndarray, positions: np.ndarray | None = None):
        terms, coeffs, diagonals = drift_terms(model, SPIN_BASIS, positions)
        # one row per geometry: every position set's, or the model's own
        self._coeffs, self._diagonals = np.atleast_2d(coeffs), np.atleast_2d(diagonals)
        self._psi0 = psi0
        self._model = model
        self._pattern = block_pattern(terms, model.n_sites, SPIN_BASIS, np.flatnonzero(psi0))
        self._hz = build_control_hz_diagonal(model.n_sites, SPIN_BASIS)
        #: the (S, k) basis indices of the S blocks of each size k
        self.indices = self._pattern.indices
        # from the pattern's size order to smallest-index order, the order
        # in which the sector sum adds the blocks up
        first = np.concatenate([idx[:, 0] for idx in self.indices])
        self._order = np.argsort(first)
        self.hz = self._hz[first[self._order]]

    def returns(self, target: np.ndarray, t, rows=None, offsets=0.0) -> np.ndarray:
        """c_b(t + s) on the last axis, after the shapes of t and of the time
        ``offsets`` s and, for a slice of geometry ``rows``, a first stack
        axis. Without ``rows``, the model's own drift, from the
        ``_stage_kernels`` memo; an index or a slice decomposes those
        drifts for this call only."""
        if rows is None:
            kernels = _stage_kernels(self._pattern, self._model, SPIN_BASIS, (), True)
        else:
            drifts = self._coeffs[rows], self._diagonals[rows]
            kernels = _build_kernels(self._pattern, self._hz, *drifts)
        parts = []
        for idx, kernel, axis in kernels:
            c = kernel.overlaps(target[idx], self._psi0[idx], t, 0.0, offsets)
            # the stack's block axis, after any geometry axis, goes last
            parts.append(np.moveaxis(c, axis, -1))
        return np.concatenate(parts, axis=-1)[..., self._order]

    def grid_returns(self, target: np.ndarray, dt: float, count: int, rows=None) -> np.ndarray:
        """``returns`` at the ``count`` times k dt of a uniform grid, such as
        a schedule's slice boundaries (dt, n + 1), as a (count, blocks)
        array after any geometry axis. The grid goes in ceil(count / B)
        giant steps a B dt of B = ceil(sqrt(count)) baby steps b dt each,
        exp(-i (a B + b) dt w) = exp(-i a B dt w) exp(-i b dt w) (the
        baby-step giant-step split of Paterson & Stockmeyer, SIAM J.
        Comput. 2, 60 (1973)): each block takes about 2 sqrt(count) phase
        rows, not count. More than MAX_TRACE_STACK amplitudes per drift
        are refused before any is evaluated."""
        check_return_budget(count, self.hz.size)
        steps = math.isqrt(count - 1) + 1  # B
        c = self.returns(target, dt * np.arange(0, count, steps), rows, dt * np.arange(steps))
        return c.reshape(c.shape[:-3] + (-1, c.shape[-1]))[..., :count, :]


def _stage_terms(model: ModelKind, basis, drives) -> tuple:
    """A stage's Hamiltonian as a ``hermitian_sum`` triple: each drive's
    (rate/2)(|a><b| + h.c.) on every atom, then ``chain.drift_terms`` (the
    sums' rounding depends on that order); the spin path's has no drives."""
    terms, coeffs, diagonal = drift_terms(model, basis)
    sites = range(model.n_sites)
    moves = [(((site, a, b),), 0.5 * rate) for a, b, rate in drives for site in sites]
    return (tuple(term for term, _ in moves) + terms,
            np.concatenate([[coeff for _, coeff in moves], coeffs]), diagonal)


def _build_kernels(layout, hz: np.ndarray, coeffs, diagonals) -> tuple:
    """(idx, ``ClosedFormPropagator``, position of its block axis) per
    block size of ``layout``, idx the (S, k) block indices, for one
    Hamiltonian's coefficients and diagonal or a geometry stack of them."""
    blocks = layout.fill(coeffs, diagonals)
    return tuple((idx, ClosedFormPropagator(h, hz[idx]), h.ndim - 3) for idx, h in blocks)


@functools.lru_cache(maxsize=8)
def _stage_kernels(layout, model: ModelKind, basis, drives, field: bool) -> tuple:
    """The kernels of the ``_stage_terms`` of ``drives`` on ``model`` in
    ``layout``, with Hz where ``field`` is set; ``__wrapped__`` builds them
    afresh. Memoised on that description, never on array bytes: an entry
    holds 0.14-8.5 KB for a spin chain (N=2..6) and up to 13.86 MB for an
    N=6 chain's two post-core stages, so 8 entries stay under 56 MB."""
    n = model.n_sites
    hz = build_control_hz_diagonal(n, basis) if field else np.zeros(basis.dim**n)
    return _build_kernels(layout, hz, *_stage_terms(model, basis, drives)[1:])


def check_return_budget(boundaries: int, sectors: int) -> None:
    """Refuse return amplitudes at ``boundaries`` slice boundaries x
    ``sectors`` blocks beyond MAX_TRACE_STACK."""
    check_trace_stack({"slice boundaries": boundaries, "sectors": sectors}, "return", "amplitudes")


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
    t, n_sites = config.t_total, config.model.n_sites
    sectors = SpinSectors(config.model, plus_product_state(n_sites))
    landscape = _landscape(sectors, target_state(config.target, n_sites), t)
    guess = make_guess(config.guess, t)

    area = guess.field_area
    phi, slope = landscape(area)
    if not (math.isfinite(phi) and math.isfinite(slope)):
        raise GrapeError("non-finite landscape or gradient at the starting point")
    history = [phi]

    rate = INITIAL_RATE
    flat = 0
    converged = slope == 0.0
    while not converged and len(history) <= MAX_ITERATIONS:
        while rate >= RATE_FLOOR:
            trial = area + rate * slope
            phi_trial, slope_trial = landscape(trial)
            if not math.isfinite(phi_trial):
                raise GrapeError(f"non-finite landscape during line search at rate {rate}")
            if phi_trial >= phi:
                break
            rate *= BACKTRACK_FACTOR
        else:
            converged = True  # no ascent step above the rate floor
            break
        if not math.isfinite(slope_trial):
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


def _landscape(sectors: SpinSectors, target: np.ndarray, t: float):
    """Phi(A) and dPhi/dA at duration t, as one function of the area A. The
    overlap and its area derivative, one row each, and the phase row
    -i h_b are formed once; each call is one product with the area's
    phases exp(-i A h_b), after which the pair is read back as Python
    complex numbers, whose abs and products round as numpy's scalars do
    without their per-operation overhead."""
    returns = sectors.returns(target, t)
    phase = -1j * sectors.hz
    stacked = np.stack([returns, phase * returns])

    def landscape(area: float) -> tuple[float, float]:
        overlap, d_overlap = (stacked @ np.exp(area * phase)).tolist()
        return abs(overlap) ** 2, 2.0 * (overlap.conjugate() * d_overlap).real

    return landscape


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
#: ascent on the chain's memoised decomposition: 0.3-0.65 ms at N=3 and
#: N=6 in either mode and from either guess (71-point scans over
#: 0.05-0.75, best of five, one thread of a 2-vCPU Xeon; 0.3-0.7 ms with
#: the phase row formed per call, interleaved in one process), so a grid
#: at the cap takes 3-6.5 s.
MAX_SCAN_STEPS = 10_000


def check_scan_grid(t_min: float, t_max: float, steps: int) -> None:
    """Refuse a duration grid unless its bounds are finite and positive
    (naming the bound), t_min < t_max, and it has 2 to MAX_SCAN_STEPS points."""
    _check_duration(t_min, "t_min")
    _check_duration(t_max, "t_max")
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise ValueError(f"the duration grid needs 2 to {MAX_SCAN_STEPS} points, not {steps}")


def scan_duration(
    config: GrapeConfig, t_min: float, t_max: float, steps: int
) -> ScanResult:
    """Optimize at each duration on a uniform grid of 2 to MAX_SCAN_STEPS
    points, one ``optimize`` run per point; the chain's sectors come from
    the ``_stage_kernels`` memo, so the drift is decomposed at most once
    for the whole grid.

    Returns the (T, optimized population) curve in increasing T and its
    interior local maxima ranked by population, dominant first.
    """
    check_scan_grid(t_min, t_max, steps)
    points = []
    for t in np.linspace(t_min, t_max, steps):
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
    of the package goes through here, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")


def load_result(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
