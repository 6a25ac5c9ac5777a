"""Gradient-ascent pulse engineering (GRAPE) of the global field B(t).

The control problem has one scalar field B(t), piecewise constant over n
slices. Every drift Hamiltonian in scope commutes with the control term
Hz, so the evolution under any schedule collapses to a closed form:

    U(t) = exp(-i H0 t) exp(-i A(t) Hz),   A(t) = integral of B up to t

One eigendecomposition of H0 per model serves every duration and field
area. The landscape depends on a schedule only through (T, A), and its
gradient dPhi/dB_k = dt dPhi/dA is the same on every slice. The
optimizer is plain gradient ascent with a backtracking line search
(Khaneja et al., J. Magn. Reson. 172, 296 (2005), specialized to this
commuting control); accepted landscape values are non-decreasing by
construction. A model that fails the commutator check raises
``GrapeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .chain import ModelKind, assemble_system, build_control_hz_diagonal
from .operators import SPIN_BASIS
from .targets import TargetSpec, plus_product_state, target_state

__all__ = [
    "ControlSchedule",
    "GuessSpec",
    "LearningSettings",
    "GrapeConfig",
    "GrapeResult",
    "ScanResult",
    "ClosedFormPropagator",
    "GrapeError",
    "gaussian_guess",
    "random_guess",
    "make_guess",
    "landscape_and_gradient",
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


class GrapeError(RuntimeError):
    """Raised when optimization cannot proceed (non-finite landscape, bad config)."""


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
        if self.t_total <= 0.0:
            raise ValueError("t_total must be positive")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_slices(self) -> int:
        return self.amplitudes.size

    @property
    def dt(self) -> float:
        return self.t_total / self.n_slices

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
    sigma_g: float = 0.1
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
class LearningSettings:
    """Line-search knobs.

    The search keeps a running rate: backtracking halves it until the
    landscape does not decrease, and each accepted step doubles it for
    the next iteration. The doubling is a documented extension of a
    fixed-restart backtracking scheme; with the tiny per-slice gradients
    of short-duration schedules a fixed unit rate would need many
    thousands of iterations to move the integrated field at all.
    """

    initial_rate: float = 1.0
    backtrack_factor: float = 0.5
    grow_factor: float = 2.0
    rate_floor: float = 1e-6
    max_iterations: int = 5000
    stop_tolerance: float = 1e-8
    flat_iterations: int = 10

    def __post_init__(self) -> None:
        if self.initial_rate <= 0 or self.max_iterations < 1 or self.stop_tolerance <= 0:
            raise ValueError("invalid learning settings")


@dataclass(frozen=True)
class GrapeConfig:
    model: ModelKind
    t_total: float
    guess: GuessSpec
    target: TargetSpec
    learning: LearningSettings = field(default_factory=LearningSettings)

    def __post_init__(self) -> None:
        if not self.t_total > 0.0:
            raise ValueError("t_total must be positive")
        if self.model.n_sites != self.target.n_sites:
            raise ValueError("model and target disagree on the site count")


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


def gaussian_guess(
    n_slices: int, t_total: float, b0: float, sigma_g: float = 0.1
) -> ControlSchedule:
    """Gaussian profile B0/(sqrt(2 pi) sigma) exp(-t_g^2 / 2 sigma^2).

    The slice midpoint k maps to t_g = (k + 0.5)/n - 0.5, so the profile
    is symmetric about the schedule center regardless of t_total.
    """
    if sigma_g == 0.0:
        raise ValueError("sigma_g must be nonzero")
    k = np.arange(n_slices)
    t_g = (k + 0.5) / n_slices - 0.5
    amps = b0 / (np.sqrt(2.0 * np.pi) * sigma_g) * np.exp(-(t_g**2) / (2.0 * sigma_g**2))
    return ControlSchedule(t_total=t_total, amplitudes=amps)


def random_guess(n_slices: int, t_total: float, b0: float, seed: int) -> ControlSchedule:
    """Per-slice amplitudes b0 * xi with xi i.i.d. uniform on [0, 1]."""
    rng = np.random.default_rng(seed)
    amps = b0 * rng.uniform(0.0, 1.0, n_slices)
    return ControlSchedule(t_total=t_total, amplitudes=amps)


def make_guess(spec: GuessSpec, t_total: float) -> ControlSchedule:
    n = spec.slice_count()
    if spec.kind == "gaussian":
        return gaussian_guess(n, t_total, spec.b0, spec.sigma_g)
    if spec.kind == "random":
        return random_guess(n, t_total, spec.b0, spec.seed)
    raise ValueError(f"unknown guess kind {spec.kind!r}")


class ClosedFormPropagator:
    """Overlaps <target| exp(-i H0 t) exp(-i A Hz) |psi> for one model.

    Diagonalizes H0 once. Hz is diagonal in the computational basis and
    is applied as phases. The constructor verifies [H0, Hz] = 0, which the
    factorization depends on; H0 only connects states of equal
    magnetization, so the check holds for every model in scope.
    """

    def __init__(self, model: ModelKind):
        h0 = assemble_system(model, SPIN_BASIS)
        self.hz_diag = build_control_hz_diagonal(model.n_sites, SPIN_BASIS)
        comm = self.hz_diag[:, None] * h0 - h0 * self.hz_diag[None, :]
        comm_norm = float(np.max(np.abs(comm)))
        if not comm_norm < COMMUTATOR_TOL:
            raise GrapeError(
                f"drift does not commute with the control (|[H0, Hz]| = "
                f"{comm_norm:.3e}); the closed-form propagator needs it"
            )
        self._w, self._v = np.linalg.eigh(h0)

    def overlaps(self, target: np.ndarray, psi: np.ndarray, t, area) -> np.ndarray:
        """Overlap at each (t, area) pair; the two broadcast together."""
        t, area = np.broadcast_arrays(np.asarray(t, float), np.asarray(area, float))
        kicked = np.exp(-1j * area[..., None] * self.hz_diag) * psi
        drift = np.exp(-1j * t[..., None] * self._w)
        return ((kicked @ self._v.conj()) * drift) @ (target.conj() @ self._v)

    def landscape(
        self, schedule: ControlSchedule, psi0: np.ndarray, target: np.ndarray
    ) -> float:
        overlap = self.overlaps(target, psi0, schedule.t_total, schedule.field_area)
        return float(abs(overlap) ** 2)

    def landscape_and_gradient(
        self, schedule: ControlSchedule, psi0: np.ndarray, target: np.ndarray
    ) -> tuple[float, np.ndarray]:
        t, area = schedule.t_total, schedule.field_area
        overlap = self.overlaps(target, psi0, t, area)
        # dPhi/dA from the same kernel applied to -i Hz psi0; every slice
        # moves the area by dt per unit amplitude, so dPhi/dB_k = dt dPhi/dA
        slope = 2.0 * np.real(
            np.conj(overlap) * self.overlaps(target, -1j * self.hz_diag * psi0, t, area)
        )
        return float(abs(overlap) ** 2), np.full(schedule.n_slices, schedule.dt * slope)


def landscape_and_gradient(
    model: ModelKind,
    schedule: ControlSchedule,
    psi0: np.ndarray,
    target: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Landscape value |<target|U(T,0)|psi0>|^2 and its exact gradient.

    Raises ``GrapeError`` if the model's drift does not commute with Hz.
    """
    return ClosedFormPropagator(model).landscape_and_gradient(schedule, psi0, target)


def optimize(config: GrapeConfig, psi0: np.ndarray | None = None) -> GrapeResult:
    """Gradient ascent from the configured guess field.

    Backtracking line search accepts only non-decreasing landscape
    values; the running rate doubles after each accepted step and halves
    inside the search, with a hard floor. Stops after
    ``flat_iterations`` consecutive accepted steps changing the
    landscape by less than ``stop_tolerance``, or at the iteration cap,
    or when no acceptable step exists above the rate floor.

    The rate is dimensionless: it multiplies the gradient taken with
    respect to the field area (the summed amplitude-times-duration of
    the schedule), so step sizes do not depend on how finely the same
    physical field is sliced.

    The returned schedule has whole 2 pi windings of its field area
    removed (see ``reduce_field_winding``); the landscape value is
    unchanged by construction.
    """
    prop = ClosedFormPropagator(config.model)
    target = target_state(config.target)
    if psi0 is None:
        psi0 = plus_product_state(config.model.n_sites)
    schedule = make_guess(config.guess, config.t_total)
    settings = config.learning

    phi, grad = prop.landscape_and_gradient(schedule, psi0, target)
    if not np.isfinite(phi) or not np.all(np.isfinite(grad)):
        raise GrapeError("non-finite landscape or gradient at the starting point")
    history = [phi]

    if np.max(np.abs(grad)) == 0.0:
        return GrapeResult(
            schedule=reduce_field_winding(schedule),
            phi_history=history,
            final_population=phi,
            iterations=0,
            converged=True,
        )

    # d(area)/dB_k = dt, so stepping the area by rate * dPhi/d(area)
    # means stepping each amplitude by rate * n / T^2 times dPhi/dB_k.
    area_scale = schedule.n_slices / config.t_total**2
    rate = settings.initial_rate
    flat = 0
    iterations = 0
    converged = False
    for iterations in range(1, settings.max_iterations + 1):
        candidate = None
        phi_new = phi
        while rate >= settings.rate_floor:
            trial = replace(
                schedule, amplitudes=schedule.amplitudes + (rate * area_scale) * grad
            )
            phi_trial = prop.landscape(trial, psi0, target)
            if not np.isfinite(phi_trial):
                raise GrapeError(f"non-finite landscape during line search at rate {rate}")
            if phi_trial >= phi:
                candidate = trial
                phi_new = phi_trial
                break
            rate *= settings.backtrack_factor
        if candidate is None:
            converged = True
            iterations -= 1
            break

        delta = phi_new - phi
        schedule = candidate
        phi = phi_new
        history.append(phi)
        rate *= settings.grow_factor
        _, grad = prop.landscape_and_gradient(schedule, psi0, target)
        if not np.all(np.isfinite(grad)):
            raise GrapeError("non-finite gradient after accepted step")

        if abs(delta) < settings.stop_tolerance:
            flat += 1
            if flat >= settings.flat_iterations:
                converged = True
                break
        else:
            flat = 0

    schedule = reduce_field_winding(schedule)
    final_population = prop.landscape(schedule, psi0, target)
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def load_result(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
