"""Open-system and noisy-ensemble dynamics.

Spontaneous emission is modeled on the 3-level basis {up, down, g}: both
spin levels decay into an empty ground level that carries no interaction
or field terms. Geometric disorder draws one static displacement per
atom per sample; field noise draws one offset per control slice. All
randomness flows through numpy's seeded Generator, one seed per sample,
so ensembles are reproducible and order-independent.

Distance units: geometry positions are um, noise sigmas and delta_r are
quoted in nm (as measured) and converted here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    ChainGeometry,
    ModelKind,
    RydbergModel,
    assemble_system,
    build_control_hz,
)
from .grape import ClosedFormPropagator, ControlSchedule
from .operators import EMISSION_BASIS, LocalBasis, transition_indices

__all__ = [
    "JumpChannels",
    "DEFAULT_JUMPS",
    "NoiseSpec",
    "MasterResult",
    "EnsembleResult",
    "evolve_master",
    "sample_geometry_noise",
    "sample_field_noise",
    "ensemble_average",
    "closed_system_trace",
]

NM_PER_UM = 1000.0

#: Substep ceiling for the fixed-step integrator, us.
MAX_SUBSTEP = 1e-3

#: Largest generator rotation per substep, rad; the substep shrinks below
#: MAX_SUBSTEP whenever the Hamiltonian scale demands it.
MAX_PHASE_PER_SUBSTEP = 0.1

#: Refusal threshold on the total substep count of one run.
MAX_TOTAL_SUBSTEPS = 1_000_000


@dataclass(frozen=True)
class JumpChannels:
    """Per-site decay channels as (from_level, to_level, rate 1/us)."""

    channels: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        for _, _, rate in self.channels:
            if rate < 0:
                raise ValueError("decay rates must be non-negative")

    def validate(self, basis: LocalBasis) -> None:
        for src, dst, _ in self.channels:
            if not (basis.has_level(src) and basis.has_level(dst)):
                raise ValueError(f"channel {src}->{dst} not supported by basis")


#: Rydberg-state lifetimes 569 us (up) and 1100 us (down), decaying to g.
DEFAULT_JUMPS = JumpChannels(
    channels=(("up", "g", 1.0 / 569.0), ("down", "g", 1.0 / 1100.0))
)


@dataclass(frozen=True)
class NoiseSpec:
    """Disorder description for ensembles.

    position_sigma : per-axis standard deviations in nm. The first
        component is taken along the chain axis, the other two along the
        transverse directions.
    field_sigma : per-slice field offset deviation, rad/us.
    delta_r : deterministic pairwise-distance offset in nm; when set,
        geometry sampling applies it instead of drawing displacements.
    """

    position_sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    field_sigma: float = 0.0
    samples: int = 50
    base_seed: int = 0
    delta_r: float | None = None

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.position_sigma) or self.field_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.samples < 1:
            raise ValueError("need at least one sample")


@dataclass
class MasterResult:
    rho_final: np.ndarray
    times: np.ndarray
    populations: np.ndarray


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_trace: np.ndarray
    min_trace: np.ndarray
    max_trace: np.ndarray
    sample_finals: np.ndarray
    mean_final: float
    std_final: float


def _check_density_matrix(rho: np.ndarray) -> None:
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-8:
        raise ValueError("density matrix has a negative eigenvalue")


class _LindbladRhs:
    """Right-hand side of the master equation, specialized to per-site
    single-level jump operators.

    L rho L^dag for L = |dst><src| at one site moves the diagonal block
    of configurations with src at that site onto the matching dst
    configurations, which index selection implements without forming L.
    Valid on Hermitian matrices only (rho H = (H rho)^dag is used); the
    RK4 stages preserve Hermiticity, and the integrator re-symmetrizes
    at slice boundaries to keep rounding drift out.
    """

    def __init__(self, h0: np.ndarray, hz_diag: np.ndarray, jumps: JumpChannels,
                 n_sites: int, basis: LocalBasis):
        self.h0 = h0
        self.hz = hz_diag
        self.gains: list[tuple[float, np.ndarray, np.ndarray]] = []
        self.decay = np.zeros(h0.shape[0])
        for site in range(n_sites):
            for src_name, dst_name, rate in jumps.channels:
                if rate == 0.0:
                    continue
                dst, src = transition_indices(n_sites, basis, {site: (dst_name, src_name)})
                self.gains.append((rate, src, dst))
                self.decay[src] += rate

    def __call__(self, rho: np.ndarray, b_field: float) -> np.ndarray:
        hr = self.h0 @ rho
        out = -1j * (hr - hr.conj().T)
        out -= 1j * b_field * (self.hz[:, None] * rho - rho * self.hz[None, :])
        out -= 0.5 * (self.decay[:, None] + self.decay[None, :]) * rho
        for rate, src, dst in self.gains:
            out[np.ix_(dst, dst)] += rate * rho[np.ix_(src, src)]
        return out


def _integrate_master(
    rhs: _LindbladRhs,
    schedule: ControlSchedule,
    rho0: np.ndarray,
    target: np.ndarray | None,
    substep_ceiling: float,
) -> MasterResult:
    rho = rho0.astype(complex)
    n = schedule.n_slices
    slice_dt = schedule.dt
    # hold the rotation per substep below the phase budget: row sums bound
    # the drift spectrum, the field enters through its largest amplitude
    rate_bound = float(np.max(np.sum(np.abs(rhs.h0), axis=1)))
    rate_bound += float(np.max(np.abs(schedule.amplitudes))) * float(
        np.max(np.abs(rhs.hz))
    )
    rate_bound += float(np.max(rhs.decay, initial=0.0))
    ceiling = min(slice_dt, substep_ceiling)
    if rate_bound > 0.0:
        ceiling = min(ceiling, MAX_PHASE_PER_SUBSTEP / rate_bound)
    substeps = max(1, int(np.ceil(slice_dt / ceiling)))
    if substeps * n > MAX_TOTAL_SUBSTEPS:
        raise ValueError(
            f"schedule needs {substeps * n} integrator substeps at Hamiltonian "
            f"scale {rate_bound:.1f} rad/us; reduce the field amplitudes "
            "(reduce_field_winding) or the slice durations"
        )
    dt = slice_dt / substeps

    times = np.linspace(0.0, schedule.t_total, n + 1)
    pops = np.zeros(n + 1)

    def record(idx: int) -> None:
        if target is not None:
            pops[idx] = float(np.real(np.vdot(target, rho @ target)))

    record(0)
    for k in range(n):
        b = schedule.amplitudes[k]
        for _ in range(substeps):
            k1 = rhs(rho, b)
            k2 = rhs(rho + 0.5 * dt * k1, b)
            k3 = rhs(rho + 0.5 * dt * k2, b)
            k4 = rhs(rho + dt * k3, b)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        record(k + 1)

    trace_err = abs(np.trace(rho).real - 1.0)
    if trace_err > 1e-8:
        raise RuntimeError(f"trace drifted by {trace_err:.3e}; reduce the substep")
    return MasterResult(rho_final=rho, times=times, populations=pops)


def evolve_master(
    model: ModelKind,
    schedule: ControlSchedule,
    jumps: JumpChannels,
    rho0: np.ndarray,
    target: np.ndarray | None = None,
    basis: LocalBasis = EMISSION_BASIS,
    verify_step: bool = False,
) -> MasterResult:
    """Integrate the Lindblad equation over the schedule.

    Fixed-step RK4 with substep dt <= min(slice duration, 1e-3 us),
    shrunk further when the Hamiltonian scale would rotate the state by
    more than a tenth of a radian per substep; schedules demanding more
    than 10^6 substeps are refused. ``populations`` holds the target
    population at every slice boundary (zeros when no target is given).
    ``verify_step=True`` repeats the run at half the substep and raises
    unless the final population agrees within 1e-6.
    """
    jumps.validate(basis)
    _check_density_matrix(rho0)
    h0 = assemble_system(model, basis)
    if rho0.shape[0] != h0.shape[0]:
        raise ValueError("density matrix dimension does not match the model basis")
    hz_diag = np.real(np.diag(build_control_hz(model.n_sites, basis)))
    rhs = _LindbladRhs(h0, hz_diag, jumps, model.n_sites, basis)

    result = _integrate_master(rhs, schedule, rho0, target, MAX_SUBSTEP)
    if verify_step:
        halved = _integrate_master(rhs, schedule, rho0, target, MAX_SUBSTEP / 2.0)
        if target is not None and abs(
            halved.populations[-1] - result.populations[-1]
        ) > 1e-6:
            raise RuntimeError("substep convergence check failed")
    return result


def _chain_frame(positions: np.ndarray) -> np.ndarray:
    """Orthonormal triad (axis, transverse, transverse) for the chain.

    The measured sigma triple is resolved in this frame: first component
    along the chain direction, the remaining two across it.
    """
    axis = positions[-1] - positions[0]
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("degenerate chain: endpoints coincide")
    u = axis / norm
    ref = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    v = np.cross(ref, u)
    v /= np.linalg.norm(v)
    w = np.cross(u, v)
    return np.vstack([u, v, w])


def sample_geometry_noise(
    geometry: ChainGeometry, spec: NoiseSpec, sample_index: int
) -> ChainGeometry:
    """One static disorder realization of the chain geometry.

    With ``delta_r`` set the modification is deterministic: every
    pairwise distance gains delta_r while angles stay fixed. Otherwise
    each atom is displaced by an independent Gaussian 3-vector with the
    spec's sigmas, drawn from seed base_seed + sample_index and resolved
    in the chain frame. Displacements are static for the whole evolution.
    """
    if spec.delta_r is not None:
        return geometry.with_delta_r(spec.delta_r / NM_PER_UM)
    sigma_um = np.asarray(spec.position_sigma, dtype=float) / NM_PER_UM
    if np.all(sigma_um == 0.0):
        return geometry
    rng = np.random.default_rng(spec.base_seed + sample_index)
    frame = _chain_frame(geometry.positions)
    draws = rng.normal(0.0, 1.0, size=(geometry.n_sites, 3)) * sigma_um
    displaced = geometry.positions + draws @ frame
    return replace(geometry, positions=displaced)


def sample_field_noise(
    schedule: ControlSchedule, field_sigma: float, seed: int
) -> ControlSchedule:
    """Add an independent Gaussian offset to every slice amplitude."""
    if field_sigma < 0:
        raise ValueError("field_sigma must be non-negative")
    if field_sigma == 0.0:
        return schedule
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, field_sigma, schedule.n_slices)
    return replace(schedule, amplitudes=schedule.amplitudes + offsets)


def closed_system_trace(
    model: ModelKind,
    schedule: ControlSchedule,
    psi0: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Target population at every slice boundary under unitary evolution.

    Boundary k sits at t_k = k dt with the partial field area
    A_k = dt (B_0 + ... + B_{k-1}); the closed form evaluates them all at
    once.
    """
    return _boundary_populations(ClosedFormPropagator(model), schedule, psi0, target)


def _boundary_populations(
    prop: ClosedFormPropagator, schedule: ControlSchedule, psi0: np.ndarray, target: np.ndarray
) -> np.ndarray:
    times = schedule.dt * np.arange(schedule.n_slices + 1)
    areas = schedule.dt * np.concatenate(([0.0], np.cumsum(schedule.amplitudes)))
    return np.abs(prop.overlaps(target, psi0, times, areas)) ** 2


def ensemble_average(
    model: ModelKind,
    schedule: ControlSchedule,
    spec: NoiseSpec,
    psi0: np.ndarray,
    target: np.ndarray,
) -> EnsembleResult:
    """Monte Carlo average over disorder samples.

    Sample i draws its noise from seed base_seed + i, so the result does
    not depend on the order in which samples are evaluated. Field noise
    leaves the drift alone, so without geometry noise one propagator
    serves the whole ensemble.
    """
    geometry_noise = spec.delta_r is not None or any(s > 0 for s in spec.position_sigma)
    if geometry_noise and not isinstance(model, RydbergModel):
        raise ValueError("geometry noise requires a Rydberg model")
    prop = None if geometry_noise else ClosedFormPropagator(model)
    traces = []
    for i in range(spec.samples):
        if geometry_noise:
            geometry = sample_geometry_noise(model.geometry, spec, i)
            prop = ClosedFormPropagator(RydbergModel(geometry=geometry))
        sample_schedule = schedule
        if spec.field_sigma > 0:
            # disjoint seed block so field draws never reuse position draws
            sample_schedule = sample_field_noise(
                schedule, spec.field_sigma, spec.base_seed + spec.samples + i
            )
        traces.append(_boundary_populations(prop, sample_schedule, psi0, target))
    stack = np.vstack(traces)
    times = np.linspace(0.0, schedule.t_total, schedule.n_slices + 1)
    finals = stack[:, -1]
    return EnsembleResult(
        times=times,
        mean_trace=stack.mean(axis=0),
        min_trace=stack.min(axis=0),
        max_trace=stack.max(axis=0),
        sample_finals=finals,
        mean_final=float(finals.mean()),
        std_final=float(finals.std()),
    )
