"""Open-system and noisy-ensemble dynamics.

Spontaneous emission is modeled on the 3-level basis {up, down, g}: both
spin levels decay into an empty ground level that carries no interaction
or field terms. Nothing returns from g, so ``open_system_trace`` follows
the spin block exactly by its no-jump evolution; it, the closed trace and
the ensembles are sector sums of ``grape.SpinSectors``. ``evolve_master``
integrates the full Lindblad equation for any channel set on the dense
drift and is the tests' oracle. Geometric disorder draws one static
displacement per atom per sample; field noise draws one offset per
control slice. All randomness flows through numpy's seeded Generator,
one seed per sample, so ensembles are reproducible and order-independent.

Distance units: geometry positions are um, noise sigmas are quoted in nm
(as measured) and converted here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainGeometry,
    ModelKind,
    RydbergModel,
    assemble_system,
    build_control_hz_diagonal,
)
from .grape import ControlSchedule, SpinSectors, spin_overlaps
from .operators import (
    EMISSION_BASIS,
    MAX_TRACE_STACK,
    SPIN_BASIS,
    LocalBasis,
    transition_indices,
)

__all__ = [
    "JumpChannels",
    "GAMMA_UP",
    "GAMMA_DOWN",
    "NoiseSpec",
    "MasterResult",
    "EnsembleResult",
    "evolve_master",
    "sample_geometry_noise",
    "sample_field_noise",
    "ensemble_average",
    "closed_system_trace",
    "open_system_trace",
]

NM_PER_UM = 1000.0

#: Substep ceiling for the fixed-step integrator, us.
MAX_SUBSTEP = 1e-3

#: Largest generator rotation per substep, rad; the substep shrinks below
#: MAX_SUBSTEP whenever the Hamiltonian scale demands it.
MAX_PHASE_PER_SUBSTEP = 0.1

#: Refusal threshold on the total substep count of one run.
MAX_TOTAL_SUBSTEPS = 1_000_000

#: Bound on the complex elements of an ensemble chunk's eigen-component
#: tensor, samples x slice boundaries x largest sector block: 4 samples at
#: N=6 with 101 boundaries, 27 at N=3.
CHUNK_ELEMENTS = 2**13


@dataclass(frozen=True)
class JumpChannels:
    """Per-site decay channels as (from_level, to_level, rate 1/us) between
    levels of EMISSION_BASIS."""

    channels: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        for src, dst, rate in self.channels:
            if not np.isfinite(rate):
                raise ValueError(f"decay rates must be finite, not {rate}")
            if rate < 0:
                raise ValueError("decay rates must be non-negative")
            if not (EMISSION_BASIS.has_level(src) and EMISSION_BASIS.has_level(dst)):
                raise ValueError(f"channel {src}->{dst} not supported by the emission basis")


#: Decay rates of the Rydberg spin levels into g, 1/us: one over the
#: lifetimes of up and down, in us.
GAMMA_UP = 1.0 / 569.0
GAMMA_DOWN = 1.0 / 1100.0


@dataclass(frozen=True)
class NoiseSpec:
    """Disorder description for ensembles.

    position_sigma : per-axis standard deviations in nm. The first
        component is taken along the chain axis, the other two along the
        transverse directions.
    field_sigma : per-slice field offset deviation, rad/us.
    """

    position_sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    field_sigma: float = 0.0
    samples: int = 50
    base_seed: int = 0

    def __post_init__(self) -> None:
        sigmas = (*self.position_sigma, self.field_sigma)
        if not np.all(np.isfinite(sigmas)):
            raise ValueError(f"noise sigmas must be finite, not {sigmas}")
        if any(s < 0 for s in sigmas):
            raise ValueError("noise sigmas must be non-negative")
        if self.samples < 1:
            raise ValueError("need at least one sample")

    def check_trace_budget(self, boundaries: int) -> None:
        """Refuse an ensemble whose traces, ``samples`` x ``boundaries``
        populations, exceed MAX_TRACE_STACK."""
        if self.samples * boundaries > MAX_TRACE_STACK:
            raise ValueError(
                f"{self.samples} samples x {boundaries} slice boundaries exceed the "
                f"ensemble budget of {MAX_TRACE_STACK} populations"
            )


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
    ceiling = min(slice_dt, MAX_SUBSTEP)
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
    return MasterResult(rho_final=rho, times=schedule.boundary_times, populations=pops)


def evolve_master(
    model: ModelKind,
    schedule: ControlSchedule,
    jumps: JumpChannels,
    rho0: np.ndarray,
    target: np.ndarray | None = None,
) -> MasterResult:
    """Integrate the Lindblad equation over the schedule, on EMISSION_BASIS.

    Fixed-step RK4 with substep dt <= min(slice duration, 1e-3 us),
    shrunk further when the Hamiltonian scale would rotate the state by
    more than a tenth of a radian per substep; schedules demanding more
    than 10^6 substeps are refused. ``populations`` holds the target
    population at every slice boundary (zeros when no target is given).
    """
    _check_density_matrix(rho0)
    h0 = assemble_system(model, EMISSION_BASIS)
    if rho0.shape[0] != h0.shape[0]:
        raise ValueError("density matrix dimension does not match the model basis")
    hz_diag = build_control_hz_diagonal(model.n_sites, EMISSION_BASIS)
    rhs = _LindbladRhs(h0, hz_diag, jumps, model.n_sites, EMISSION_BASIS)
    return _integrate_master(rhs, schedule, rho0, target)


def _chain_frame(positions: np.ndarray) -> np.ndarray:
    """Orthonormal triad (axis, transverse, transverse) for the chain.

    The measured sigma triple is resolved in this frame: first component
    along the chain direction, the remaining two across it. The endpoints
    never coincide: ``ChainGeometry`` refuses any pair closer than 1 nm.
    """
    axis = positions[-1] - positions[0]
    ux, uy, uz = axis / np.linalg.norm(axis)
    # v = ref x u for the reference z (x when u is close to z), w = u x v
    v = np.array([-uy, ux, 0.0] if abs(uz) < 0.9 else [0.0, -uz, uy])
    v /= np.linalg.norm(v)
    w = [uy * v[2] - uz * v[1], uz * v[0] - ux * v[2], ux * v[1] - uy * v[0]]
    return np.array([[ux, uy, uz], v, w])


def sample_geometry_noise(
    geometry: ChainGeometry, spec: NoiseSpec, sample_index: int
) -> ChainGeometry:
    """One static disorder realization of the chain geometry.

    Each atom is displaced by an independent Gaussian 3-vector with the
    spec's sigmas, drawn from seed base_seed + sample_index and resolved
    in the chain frame. Displacements are static for the whole evolution.
    """
    sigma_um = np.asarray(spec.position_sigma, dtype=float) / NM_PER_UM
    if np.all(sigma_um == 0.0):
        return geometry
    rng = np.random.default_rng(spec.base_seed + sample_index)
    frame = _chain_frame(geometry.positions)
    draws = rng.normal(0.0, 1.0, size=(geometry.n_sites, 3)) * sigma_um
    return ChainGeometry(geometry.positions + draws @ frame, geometry.delta_r)


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
    return ControlSchedule(schedule.t_total, schedule.amplitudes + offsets)


def closed_system_trace(
    model: ModelKind,
    schedule: ControlSchedule,
    psi0: np.ndarray,
    target: np.ndarray,
) -> np.ndarray:
    """Target population at every slice boundary under unitary evolution.

    The sector sum (``grape.SpinSectors``) evaluates all of the schedule's
    ``boundary_times`` and ``boundary_areas`` at once.
    """
    sectors = SpinSectors(model, psi0)
    returns = sectors.returns(target, schedule.boundary_times)
    return np.abs(spin_overlaps(sectors.hz, returns, schedule.boundary_areas)) ** 2


def open_system_trace(
    model: ModelKind,
    schedule: ControlSchedule,
    jumps: JumpChannels,
    psi0: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed- and open-system target populations at every slice boundary.

    ``psi0`` and ``target`` are spin-basis states. When every channel
    leads from up or down out of the spin block, nothing returns to it,
    and the open-system population of a spin-basis target is exactly
    |<target| exp(-i H0 t_k) exp(-i A_k Hz) exp(-D t_k / 2) |psi0>|^2,
    the no-jump evolution (Dalibard, Castin & Molmer, PRL 68, 580 (1992)).
    D, the summed decay rate of each spin configuration, is affine in Hz,
    D = (N/2 + h) gamma_up + (N/2 - h) gamma_down on the sector of Hz
    value h: one damping exp(-D t / 2) of each sector's return amplitude.
    The closed trace comes from the same sectors and equals
    ``closed_system_trace``. Other channels raise ValueError;
    ``evolve_master`` integrates them.
    """
    rates = dict.fromkeys(SPIN_BASIS.levels, 0.0)
    for src, dst, rate in jumps.channels:
        if not SPIN_BASIS.has_level(src) or SPIN_BASIS.has_level(dst):
            raise ValueError(
                f"channel {src}->{dst} does not lead from a spin level out of the "
                "spin block, so the no-jump trace cannot represent it; integrate "
                "it with evolve_master"
            )
        rates[src] += rate
    sectors = SpinSectors(model, psi0)
    times, areas = schedule.boundary_times, schedule.boundary_areas
    returns = sectors.returns(target, times)
    half = 0.5 * model.n_sites
    decay = (half + sectors.hz) * rates["up"] + (half - sectors.hz) * rates["down"]
    damped = np.exp(-0.5 * np.outer(times, decay)) * returns
    return tuple(np.abs(spin_overlaps(sectors.hz, c, areas)) ** 2 for c in (returns, damped))


def ensemble_average(
    model: ModelKind,
    schedule: ControlSchedule,
    spec: NoiseSpec,
    psi0: np.ndarray,
    target: np.ndarray,
) -> EnsembleResult:
    """Monte Carlo average over disorder samples.

    Sample i draws its noise from seed base_seed + i, so the result does
    not depend on the order in which samples are evaluated. One
    ``grape.SpinSectors`` serves the ensemble: one evaluation of the pair
    law gives every sample geometry's drift, and the samples go in chunks
    of CHUNK_ELEMENTS / (boundaries x largest block), one stacked ``eigh``
    call per sector and chunk. Field noise moves only the areas, so without
    geometry noise one set of return amplitudes serves every sample. An
    ensemble of more than MAX_TRACE_STACK populations is refused before
    any draw.
    """
    times = schedule.boundary_times
    spec.check_trace_budget(times.size)
    geometry_noise = any(s > 0 for s in spec.position_sigma)
    if geometry_noise and not isinstance(model, RydbergModel):
        raise ValueError("geometry noise requires a Rydberg model")
    positions = None
    if geometry_noise:
        positions = np.stack([
            sample_geometry_noise(model.geometry, spec, i).positions
            for i in range(spec.samples)
        ])
    sectors = SpinSectors(model, psi0, positions)
    largest = max(len(idx) for idx in sectors.indices)
    chunk = max(1, CHUNK_ELEMENTS // (times.size * largest))
    traces = np.empty((spec.samples, times.size))
    areas = schedule.boundary_areas
    for start in range(0, spec.samples, chunk):
        rows = slice(start, start + chunk)
        if start == 0 or geometry_noise:
            # (samples in the chunk, boundaries, sectors)
            returns = sectors.returns(target, times, rows)
        if spec.field_sigma > 0:
            # disjoint seed block so field draws never reuse position draws
            areas = np.stack([
                sample_field_noise(
                    schedule, spec.field_sigma, spec.base_seed + spec.samples + i
                ).boundary_areas
                for i in range(spec.samples)[rows]
            ])
        traces[rows] = np.abs(spin_overlaps(sectors.hz, returns, areas)) ** 2
    finals = traces[:, -1]
    return EnsembleResult(
        times=times,
        mean_trace=traces.mean(axis=0),
        min_trace=traces.min(axis=0),
        max_trace=traces.max(axis=0),
        sample_finals=finals,
        mean_final=float(finals.mean()),
        std_final=float(finals.std()),
    )
