"""Gradient-ascent pulse engineering (GRAPE) of the global field B(t).

The control problem has one scalar field B(t), piecewise constant over n
slices. Every drift Hamiltonian in scope commutes with the control term
Hz, so the evolution under any schedule collapses to a closed form:

    U(t) = exp(-i H t) exp(-i A(t) Hz),   A(t) = integral of B up to t

``ClosedFormPropagator`` owns that kernel: one eigendecomposition of H
per eigenspace of Hz serves every duration and field area. It serves the
spin-basis chain models here and in ``dynamics``, and every stage of the
staged protocol.
The landscape depends on a schedule only through (T, A), and its
gradient dPhi/dB_k = dt dPhi/dA is the same on every slice. So the
optimizer is gradient ascent on the scalar area A with a backtracking
line search (Khaneja et al., J. Magn. Reson. 172, 296 (2005),
specialized to this commuting control); accepted landscape values are
non-decreasing by construction. A model that fails the commutator check
raises ``GrapeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .chain import ModelKind, assemble_system, build_control_hz_diagonal
from .operators import SPIN_BASIS
from .targets import TargetForm, plus_product_state, target_state

__all__ = [
    "ControlSchedule",
    "GuessSpec",
    "GrapeConfig",
    "GrapeResult",
    "ScanResult",
    "ClosedFormPropagator",
    "GrapeError",
    "gaussian_guess",
    "random_guess",
    "make_guess",
    "optimize",
    "reduce_field_winding",
    "scan_duration",
    "schedule_to_record",
    "schedule_from_record",
    "save_result",
    "load_result",
]

COMMUTATOR_TOL = 1e-12

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
        if not (np.isfinite(self.t_total) and self.t_total > 0.0):
            raise ValueError("t_total must be finite and positive")
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
        if self.n_slices is not None and self.n_slices < 1:
            raise ValueError("n_slices must be at least 1")

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
        if not self.t_total > 0.0:
            raise ValueError("t_total must be positive")


@dataclass
class GrapeResult:
    schedule: ControlSchedule
    phi_history: list[float]
    final_population: float
    iterations: int
    converged: bool


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
    """exp(-i H t) exp(-i A Hz) applied to states, for a Hermitian H that
    commutes with a diagonal Hz.

    Because [H, Hz] = 0, every eigenspace of Hz (a magnetization sector,
    for the chain models) is an exact block of H, so H is diagonalized
    once per sector, never as a whole; a single-sector H is one block.
    Each eigenvector keeps its sector's Hz value, so exp(-i A Hz) is a
    phase on the eigen-components, as exp(-i H t) is. The constructor
    verifies the commutator, which the factorization depends on. Every
    (t, A) the methods take broadcasts against the other and against a
    stack of input states.
    """

    def __init__(self, h: np.ndarray, hz_diag: np.ndarray):
        # a float, so that no d x d temporary outlives the check into eigh
        comm_norm = float(np.max(np.abs(hz_diag[:, None] * h - h * hz_diag[None, :])))
        if not comm_norm < COMMUTATOR_TOL:
            raise GrapeError(
                f"drift does not commute with the control (|[H, Hz]| = "
                f"{comm_norm:.3e}); the closed-form propagator needs it"
            )
        self.hz_diag = hz_diag
        if np.all(hz_diag == hz_diag[0]):
            self._w, self._v = np.linalg.eigh(h)
            self._hz = hz_diag
            return
        # eigenvector columns ordered by sector, each sector's block of rows
        order = np.argsort(hz_diag, kind="stable")
        self._hz = hz_diag[order]
        self._w = np.empty(len(order))
        self._v = np.zeros(h.shape, dtype=np.result_type(h, float))
        start = 0
        for idx in np.split(order, np.flatnonzero(np.diff(self._hz)) + 1):
            cols = slice(start, start + len(idx))
            self._w[cols], self._v[idx, cols] = np.linalg.eigh(h[np.ix_(idx, idx)])
            start = cols.stop

    @classmethod
    def for_model(cls, model: ModelKind) -> "ClosedFormPropagator":
        """Spin-basis propagator of a chain model: H = H0, Hz = sum_i S^z_i.
        H0 only connects states of equal magnetization, so every model in
        scope passes the commutator check."""
        return cls(
            assemble_system(model, SPIN_BASIS),
            build_control_hz_diagonal(model.n_sites, SPIN_BASIS),
        )

    def _eigen_components(self, psi: np.ndarray, t, area) -> np.ndarray:
        t, area = np.asarray(t, float)[..., None], np.asarray(area, float)[..., None]
        return (psi @ self._v.conj()) * np.exp(-1j * (t * self._w + area * self._hz))

    def states(self, psi: np.ndarray, t, area) -> np.ndarray:
        """exp(-i H t) exp(-i A Hz) psi, one state per (t, area)."""
        return self._eigen_components(psi, t, area) @ self._v.T

    def overlaps(self, target: np.ndarray, psi: np.ndarray, t, area) -> np.ndarray:
        """<target| exp(-i H t) exp(-i A Hz) |psi>, one per (t, area)."""
        return self._eigen_components(psi, t, area) @ (target.conj() @ self._v)

    def landscape_and_slope(
        self, target: np.ndarray, psi0: np.ndarray, t: float, area: float
    ) -> tuple[float, float]:
        """Phi = |<target|U|psi0>|^2 at one (t, area) and dPhi/dA, both
        from one kernel call on psi0 and -i Hz psi0."""
        overlap, d_overlap = self.overlaps(
            target, np.stack([psi0, -1j * self.hz_diag * psi0]), t, area
        )
        return float(abs(overlap) ** 2), float(2.0 * np.real(np.conj(overlap) * d_overlap))


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
    prop = ClosedFormPropagator.for_model(config.model)
    target = target_state(config.target, config.model.n_sites)
    psi0 = plus_product_state(config.model.n_sites)
    guess = make_guess(config.guess, config.t_total)
    t = config.t_total

    area = guess.field_area
    phi, slope = prop.landscape_and_slope(target, psi0, t, area)
    if not (np.isfinite(phi) and np.isfinite(slope)):
        raise GrapeError("non-finite landscape or gradient at the starting point")
    history = [phi]

    rate = INITIAL_RATE
    flat = 0
    iterations = 0
    converged = slope == 0.0
    while not converged and iterations < MAX_ITERATIONS:
        while rate >= RATE_FLOOR:
            trial = area + rate * slope
            phi_trial, slope_trial = prop.landscape_and_slope(target, psi0, t, trial)
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
        iterations += 1
        flat = flat + 1 if abs(phi_trial - phi) < STOP_TOLERANCE else 0
        converged = flat >= FLAT_ITERATIONS
        area, phi, slope = trial, phi_trial, slope_trial
        history.append(phi)
        rate *= GROW_FACTOR

    schedule = reduce_field_winding(
        replace(guess, amplitudes=guess.amplitudes + (area - guess.field_area) / t)
    )
    final_population, _ = prop.landscape_and_slope(target, psi0, t, schedule.field_area)
    return GrapeResult(
        schedule=schedule,
        phi_history=history,
        final_population=final_population,
        iterations=iterations,
        converged=converged,
    )


def reduce_field_winding(schedule: ControlSchedule) -> ControlSchedule:
    """Subtract whole 2 pi windings of the field area as a uniform offset.

    The control term's eigenvalue ladder is integer spaced, so two
    schedules whose areas differ by a multiple of 2 pi produce the same
    landscape value; gradient ascent is free to wander many windings up
    the uniform direction. The representative with area in [-pi, pi]
    keeps field magnitudes moderate, which the master-equation and
    noise-ensemble integrations depend on.
    """
    windings = int(np.round(schedule.field_area / (2.0 * np.pi)))
    if windings == 0:
        return schedule
    offset = 2.0 * np.pi * windings / schedule.t_total
    return replace(schedule, amplitudes=schedule.amplitudes - offset)


def scan_duration(
    config: GrapeConfig, t_min: float, t_max: float, steps: int
) -> ScanResult:
    """Optimize at each duration on a uniform grid.

    Returns the (T, optimized population) curve in increasing T and its
    interior local maxima ranked by population, dominant first.
    """
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    if steps < 2:
        raise ValueError("need at least two grid points")
    grid = np.linspace(t_min, t_max, steps)
    points = []
    for t in grid:
        result = optimize(replace(config, t_total=float(t)))
        points.append((float(t), result.final_population))
    maxima = [
        points[i]
        for i in range(1, len(points) - 1)
        if points[i][1] >= points[i - 1][1]
        and points[i][1] >= points[i + 1][1]
        and (points[i][1] > points[i - 1][1] or points[i][1] > points[i + 1][1])
    ]
    maxima.sort(key=lambda tp: -tp[1])
    return ScanResult(points=points, maxima=maxima)


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


def schedule_from_record(record: dict) -> ControlSchedule:
    schedule = ControlSchedule(
        t_total=record["T"], amplitudes=np.array(record["amplitudes"], dtype=float)
    )
    if schedule.n_slices != record["n"]:
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
