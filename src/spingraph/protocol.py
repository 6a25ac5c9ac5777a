"""Staged preparation, core evolution, decoupling, and mapping protocol.

Runs on the 5-level basis (0, 1, up, down, r). The dipolar and van der
Waals interactions act on the (up, down) sublevels and are on during
every stage; global resonant drives (Omega/2)(|a><b| + h.c.), each given
as a (level_a, level_b, Omega) tuple, implement the transfers. The
default 5-stage plan:

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

A stage's couplings (drive transitions and dipolar flip-flops) conserve
per-site level classes, so its Hamiltonian splits into small blocks, and
the stage diagonalizes only the blocks the state reaches
(``operators.hermitian_blocks``), never the d^N x d^N matrix; blocks the
state does not reach stay exactly zero. This is symmetry-block exact
diagonalization (Sandvik, AIP Conf. Proc. 1297, 135 (2010)). The largest
block per stage grows from 8 / 8 / 3 / 12 / 12 at N=3 to
64 / 64 / 20 / 240 / 240 at N=6, well within the dense budget; the d^N
state vectors cap the protocol at six atoms (``MAX_STATE_DIM``).

Every block runs through ``grape.ClosedFormPropagator``, the kernel
exp(-i H t) exp(-i A Hz), so each block is diagonalized once. A drive
stage's Hamiltonian is constant: it passes a zero Hz and area 0, and
every traced state comes from the one eigendecomposition per block. The
core stage passes the interactions as H, the field term as Hz and the
field area so far, A(t_k) = dt (B_0 + ... + B_{k-1}), at every slice
boundary: the interactions conserve magnetization, so the schedule enters
as diagonal phases.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .chain import TWO_PI, ChainGeometry, build_control_hz_diagonal, rydberg_background
from .grape import ClosedFormPropagator, ControlSchedule
from .operators import (
    PROTOCOL_BASIS,
    basis_state,
    check_hermitian,
    hermitian_blocks,
    product_state,
    site_levels,
)
from .targets import complete_graph_state

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

    drives : tuple of (level_a, level_b, rabi_rate) entries, each
        contributing (rate/2)(|a><b| + h.c.) on every atom.
        Empty for the core stage, which instead applies the plan's field
        schedule.
    background : include the interaction Hamiltonian (True in every
        physical run; switchable to isolate drive-only behavior).
    """

    label: str
    duration: float
    drives: tuple[tuple[str, str, float], ...] = ()
    uses_core_schedule: bool = False
    background: bool = True

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("stage duration must be non-negative")


@dataclass(frozen=True)
class ProtocolPlan:
    """Stages run in order on one chain. A core stage lasts exactly the
    core schedule's duration, so the stage end times and the timeline
    follow the evolution that runs."""

    stages: tuple[ProtocolStage, ...]
    geometry: ChainGeometry
    core_schedule: ControlSchedule

    def __post_init__(self) -> None:
        for stage in self.stages:
            if stage.uses_core_schedule and stage.duration != self.core_schedule.t_total:
                raise ValueError(
                    f"core stage {stage.label!r} lasts {stage.duration}, but the core "
                    f"schedule lasts T = {self.core_schedule.t_total}"
                )

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

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


def standard_plan(geometry: ChainGeometry, core_schedule: ControlSchedule) -> ProtocolPlan:
    """The five stages of the module docstring at the OMEGA_* rates."""
    omega, omega_a, omega_b = OMEGA_TWO_PHOTON, OMEGA_MICROWAVE_A, OMEGA_MICROWAVE_B
    stages = (
        ProtocolStage("prepare-up", np.pi / omega, (("up", "0", omega),)),
        ProtocolStage("half-rotate", np.pi / (2.0 * omega_a), (("down", "up", omega_a),)),
        ProtocolStage("core", core_schedule.t_total, (), uses_core_schedule=True),
        ProtocolStage("decouple", np.pi / omega_b, (("r", "down", omega_b),)),
        ProtocolStage("map-to-clock", np.pi / omega, (("0", "up", omega), ("1", "r", omega))),
    )
    return ProtocolPlan(stages=stages, geometry=geometry, core_schedule=core_schedule)


def run_stage(
    state: np.ndarray,
    stage: ProtocolStage,
    plan: ProtocolPlan,
    trace_hook=None,
) -> np.ndarray:
    """Evolve through one stage; optionally report intermediate states.

    ``trace_hook(t_local, state)`` is called at sub-sampled times inside
    the stage (excluding t_local = 0): at TRACE_POINTS_PER_STAGE equal
    steps of a drive stage, and at every slice boundary of the core.
    Without a hook only the last of those points, the returned state, is
    evaluated.

    One eigendecomposition per reached block (see the module docstring).
    The core stage's factorization needs [h_sys, Hz] = 0 on every block; a
    background that breaks it raises ``GrapeError``, a ValueError.
    """
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("stage input state not normalized")
    if not stage.uses_core_schedule and not stage.drives and not stage.background:
        raise ValueError("stage has neither drives nor interactions")
    n, dim = plan.n_sites, PROTOCOL_BASIS.dim**plan.n_sites
    terms = [(0.5 * rate, {site: (a, b)}) for a, b, rate in stage.drives for site in range(n)]
    diagonal = np.zeros(dim)
    if stage.background:
        exchange, diagonal = rydberg_background(plan.geometry, PROTOCOL_BASIS)
        terms += exchange
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"state dim {state.shape} does not match operator dim {dim}")
    points = slice(None) if trace_hook is not None else slice(-1, None)
    if stage.uses_core_schedule:
        schedule = plan.core_schedule
        hz = build_control_hz_diagonal(n, PROTOCOL_BASIS)
        times, areas = schedule.boundary_times[1:][points], schedule.boundary_areas[1:][points]
    else:
        steps = TRACE_POINTS_PER_STAGE
        times = (np.arange(1, steps + 1) * (stage.duration / steps))[points]
        hz, areas = np.zeros(dim), 0.0
    states = np.zeros((len(times), dim), dtype=complex)
    blocks = hermitian_blocks(terms, diagonal, n, PROTOCOL_BASIS, np.flatnonzero(state))
    for idx, h in blocks:
        check_hermitian(h)
        states[:, idx] = ClosedFormPropagator(h, hz[idx]).states(state[idx], times, areas)
    if trace_hook is not None:
        for t, s in zip(times, states):
            trace_hook(float(t), s)
    return states[-1]


def mapped_graph_state(
    n_sites: int,
    level_for_up: str,
    level_for_down: str,
    factor_per_down: complex,
    factor_per_up: complex = 1.0,
) -> np.ndarray:
    """Complete graph state with its two spin roles relabeled.

    Takes the amplitudes of ``targets.complete_graph_state``, sends
    up-spins to ``level_for_up`` and down-spins to ``level_for_down``, and
    multiplies the listed factor per site of each role. These are the
    protocol's stage-boundary references.
    """
    levels = site_levels(n_sites, PROTOCOL_BASIS.dim)
    is_up = levels == PROTOCOL_BASIS.index(level_for_up)
    is_down = levels == PROTOCOL_BASIS.index(level_for_down)
    rows = np.flatnonzero(np.all(is_up | is_down, axis=1))
    # each row's (up, down) = (0, 1) configuration as a spin-basis index
    spins = np.ravel_multi_index(is_down[rows].T, (2,) * n_sites)
    amps = complete_graph_state(n_sites)[spins]
    for site in range(n_sites):
        amps = amps * np.where(is_up[rows, site], factor_per_up, factor_per_down)
    out = np.zeros(len(levels), dtype=complex)
    # adding onto zeros turns -0.0 parts into +0.0, as a sum of kets does
    out[rows] += amps
    return out


def _reference_states(n_sites: int) -> dict[str, np.ndarray | None]:
    single = np.zeros(PROTOCOL_BASIS.dim, dtype=complex)
    single[PROTOCOL_BASIS.index("up")] = 1.0 / np.sqrt(2.0)
    single[PROTOCOL_BASIS.index("down")] = -1.0j / np.sqrt(2.0)
    return {
        "prepare-up": None,
        "half-rotate": product_state(single, n_sites),
        "core": mapped_graph_state(n_sites, "up", "down", factor_per_down=-1.0j),
        "decouple": mapped_graph_state(n_sites, "up", "r", factor_per_down=-1.0),
        "map-to-clock": mapped_graph_state(
            n_sites, "0", "1", factor_per_down=1.0, factor_per_up=-1.0
        ),
    }


def run_full_protocol(plan: ProtocolPlan) -> ProtocolResult:
    """Execute all stages from the all-zero start.

    Records each reference-state population at its stage boundary and a
    timeline of all four reference populations for the trace CSV. The
    final report's population is the mapped graph state on the clock
    levels.
    """
    refs = _reference_states(plan.n_sites)
    tracked = [
        refs["half-rotate"],
        refs["core"],
        refs["decouple"],
        refs["map-to-clock"],
    ]
    state = basis_state(["0"] * plan.n_sites, PROTOCOL_BASIS)

    timeline: list[tuple[float, float, float, float, float, str]] = []
    reports: list[StageReport] = []
    elapsed = 0.0

    def pops(s: np.ndarray) -> tuple[float, float, float, float]:
        return tuple(float(abs(np.vdot(r, s)) ** 2) for r in tracked)

    timeline.append((0.0, *pops(state), "start"))
    for stage in plan.stages:
        def hook(t_local: float, s: np.ndarray, _label=stage.label) -> None:
            timeline.append((elapsed + t_local, *pops(s), _label))

        state = run_stage(state, stage, plan, trace_hook=hook)
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
