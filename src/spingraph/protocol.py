"""Staged preparation, core evolution, decoupling, and mapping protocol.

Runs on the 5-level basis (0, 1, up, down, r). The dipolar and van der
Waals interactions act on the (up, down) sublevels and are on during
every stage; global resonant drives (Omega/2)(e^{i phi}|a><b| + h.c.)
implement the transfers. The default 5-stage plan:

  1. pi pulse 0 -> up, duration pi/Omega
  2. pi/2 pulse up -> down, duration pi/(2 Omega_a)
  3. core evolution with the optimized field schedule, duration T
  4. pi pulse down -> r, duration pi/Omega_b
  5. simultaneous pi pulses up -> 0 and r -> 1, duration pi/Omega

With the default rates (2 pi x 4, 2 pi x 70, 2 pi x 200 rad/us) the
stage durations sum to 0.125 + 1/280 + T + 0.0025 + 0.125 us.

Reference states at the stage boundaries: after stage 2 the product
state (|up> - i |down>)/sqrt(2) per atom; after stage 3 the graph state
with a factor -i per down-spin; after stage 4 the same with down mapped
to r and factor -1; at the end the graph state on the clock states with
a factor -1 per former up-spin. The simulation is pure-state; emission
is budgeted separately by the master-equation module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .chain import ChainGeometry, RydbergModel, assemble_system, build_control_hz
from .grape import ControlSchedule
from .operators import (
    PROTOCOL_BASIS,
    LocalBasis,
    basis_state,
    evolve_unitary,
    product_state,
    site_levels,
    transition_indices,
)

__all__ = [
    "ProtocolStage",
    "ProtocolPlan",
    "StageReport",
    "ProtocolResult",
    "OMEGA_TWO_PHOTON",
    "OMEGA_MICROWAVE_A",
    "OMEGA_MICROWAVE_B",
    "standard_plan",
    "run_stage",
    "run_full_protocol",
    "mapped_graph_state",
    "write_timeline_csv",
]

TWO_PI = 2.0 * np.pi

#: Effective two-photon Rabi rate for 0 <-> up, rad/us.
OMEGA_TWO_PHOTON = TWO_PI * 4.0
#: Microwave rate for up <-> down, rad/us.
OMEGA_MICROWAVE_A = TWO_PI * 70.0
#: Microwave rate for down <-> r, rad/us.
OMEGA_MICROWAVE_B = TWO_PI * 200.0

#: Sub-sampling per stage for the timeline trace.
TRACE_POINTS_PER_STAGE = 20


@dataclass(frozen=True)
class ProtocolStage:
    """One globally driven stage.

    drives : tuple of (level_a, level_b, rabi_rate, phase) entries, each
        contributing (rate/2)(e^{i phase}|a><b| + h.c.) on every atom.
        Empty for the core stage, which instead applies the plan's field
        schedule.
    background : include the interaction Hamiltonian (True in every
        physical run; switchable to isolate drive-only behavior).
    """

    label: str
    duration: float
    drives: tuple[tuple[str, str, float, float], ...] = ()
    uses_core_schedule: bool = False
    background: bool = True

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("stage duration must be non-negative")


@dataclass(frozen=True)
class ProtocolPlan:
    stages: tuple[ProtocolStage, ...]
    n_sites: int
    geometry: ChainGeometry
    core_schedule: ControlSchedule

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages)


@dataclass
class StageReport:
    label: str
    end_time: float
    reference_population: float | None


@dataclass
class ProtocolResult:
    final_state: np.ndarray
    stage_reports: list[StageReport]
    timeline: list[tuple[float, float, float, float, float, str]]
    total_duration: float


def standard_plan(
    geometry: ChainGeometry,
    core_schedule: ControlSchedule,
    omega: float = OMEGA_TWO_PHOTON,
    omega_a: float = OMEGA_MICROWAVE_A,
    omega_b: float = OMEGA_MICROWAVE_B,
) -> ProtocolPlan:
    stages = (
        ProtocolStage("prepare-up", np.pi / omega, (("up", "0", omega, 0.0),)),
        ProtocolStage("half-rotate", np.pi / (2.0 * omega_a), (("down", "up", omega_a, 0.0),)),
        ProtocolStage("core", core_schedule.t_total, (), uses_core_schedule=True),
        ProtocolStage("decouple", np.pi / omega_b, (("r", "down", omega_b, 0.0),)),
        ProtocolStage(
            "map-to-clock",
            np.pi / omega,
            (("0", "up", omega, 0.0), ("1", "r", omega, 0.0)),
        ),
    )
    return ProtocolPlan(
        stages=stages,
        n_sites=geometry.n_sites,
        geometry=geometry,
        core_schedule=core_schedule,
    )


def _drive_hamiltonian(
    drives: tuple[tuple[str, str, float, float], ...],
    n_sites: int,
    basis: LocalBasis,
) -> np.ndarray:
    # indices first: they refuse an over-budget dimension before h exists
    terms = [
        (0.5 * rate * np.exp(1j * phase), *transition_indices(n_sites, basis, {site: (a, b)}))
        for a, b, rate, phase in drives
        for site in range(n_sites)
    ]
    dim = basis.dim**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for coeff, dst, src in terms:
        h[dst, src] += coeff
        h[src, dst] += np.conj(coeff)
    return h


def run_stage(
    state: np.ndarray,
    stage: ProtocolStage,
    plan: ProtocolPlan,
    basis: LocalBasis = PROTOCOL_BASIS,
    trace_hook=None,
) -> np.ndarray:
    """Evolve through one stage; optionally report intermediate states.

    ``trace_hook(t_local, state)`` is called at sub-sampled times inside
    the stage (excluding t_local = 0).
    """
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("stage input state not normalized")
    h_sys = (
        assemble_system(RydbergModel(plan.geometry), basis)
        if stage.background
        else 0.0
    )
    if stage.uses_core_schedule:
        hz = build_control_hz(plan.n_sites, basis)
        schedule = plan.core_schedule
        for k in range(schedule.n_slices):
            h = h_sys + schedule.amplitudes[k] * hz
            state = evolve_unitary(h, schedule.dt, state)
            if trace_hook is not None:
                trace_hook((k + 1) * schedule.dt, state)
        return state
    if not stage.drives and not stage.background:
        raise ValueError("stage has neither drives nor interactions")
    h = h_sys + _drive_hamiltonian(stage.drives, plan.n_sites, basis)
    if trace_hook is None:
        return evolve_unitary(h, stage.duration, state)
    steps = TRACE_POINTS_PER_STAGE
    dt = stage.duration / steps
    for step in range(steps):
        state = evolve_unitary(h, dt, state)
        trace_hook((step + 1) * dt, state)
    return state


def mapped_graph_state(
    n_sites: int,
    level_for_up: str,
    level_for_down: str,
    factor_per_down: complex,
    factor_per_up: complex = 1.0,
    basis: LocalBasis = PROTOCOL_BASIS,
) -> np.ndarray:
    """Complete graph state with its two spin roles relabeled.

    Starts from the operator-product amplitudes (sign (-1)^{m(m-1)/2}
    for m up-spins), sends up-spins to ``level_for_up`` and down-spins
    to ``level_for_down``, and multiplies the listed factor per site of
    each role. These are the protocol's stage-boundary references.
    """
    levels = site_levels(n_sites, basis.dim)
    is_up = levels == basis.index(level_for_up)
    rows = np.flatnonzero(np.all(is_up | (levels == basis.index(level_for_down)), axis=1))
    m_up = np.sum(is_up[rows], axis=1)
    amps = (-1.0) ** (m_up * (m_up - 1) // 2) / np.sqrt(2.0**n_sites)
    for site in range(n_sites):
        amps = amps * np.where(is_up[rows, site], factor_per_up, factor_per_down)
    out = np.zeros(len(levels), dtype=complex)
    # adding onto zeros turns -0.0 parts into +0.0, as a sum of kets does
    out[rows] += amps
    return out


def _reference_states(n_sites: int, basis: LocalBasis) -> dict[str, np.ndarray | None]:
    single = np.zeros(basis.dim, dtype=complex)
    single[basis.index("up")] = 1.0 / np.sqrt(2.0)
    single[basis.index("down")] = -1.0j / np.sqrt(2.0)
    return {
        "prepare-up": None,
        "half-rotate": product_state(single, n_sites),
        "core": mapped_graph_state(n_sites, "up", "down", factor_per_down=-1.0j, basis=basis),
        "decouple": mapped_graph_state(n_sites, "up", "r", factor_per_down=-1.0, basis=basis),
        "map-to-clock": mapped_graph_state(
            n_sites, "0", "1", factor_per_down=1.0, factor_per_up=-1.0, basis=basis
        ),
    }


def run_full_protocol(
    plan: ProtocolPlan, basis: LocalBasis = PROTOCOL_BASIS
) -> ProtocolResult:
    """Execute all stages from the all-zero start.

    Records each reference-state population at its stage boundary and a
    timeline of all four reference populations for the trace CSV. The
    final report's population is the mapped graph state on the clock
    levels.
    """
    refs = _reference_states(plan.n_sites, basis)
    tracked = [
        refs["half-rotate"],
        refs["core"],
        refs["decouple"],
        refs["map-to-clock"],
    ]
    state = basis_state(["0"] * plan.n_sites, basis)

    timeline: list[tuple[float, float, float, float, float, str]] = []
    reports: list[StageReport] = []
    elapsed = 0.0

    def pops(s: np.ndarray) -> tuple[float, float, float, float]:
        return tuple(float(abs(np.vdot(r, s)) ** 2) for r in tracked)

    timeline.append((0.0, *pops(state), "start"))
    for stage in plan.stages:
        def hook(t_local: float, s: np.ndarray, _label=stage.label) -> None:
            timeline.append((elapsed + t_local, *pops(s), _label))

        state = run_stage(state, stage, plan, basis, trace_hook=hook)
        elapsed += stage.duration
        ref = refs.get(stage.label)
        reports.append(
            StageReport(
                label=stage.label,
                end_time=elapsed,
                reference_population=(
                    float(abs(np.vdot(ref, state)) ** 2) if ref is not None else None
                ),
            )
        )
    return ProtocolResult(
        final_state=state,
        stage_reports=reports,
        timeline=timeline,
        total_duration=elapsed,
    )


def write_timeline_csv(path, timeline) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time_us", "pop_product", "pop_core_graph", "pop_decoupled", "pop_clock", "stage"]
        )
        for row in timeline:
            writer.writerow([repr(float(x)) for x in row[:5]] + [row[5]])
