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

Reference states at the stage ends: a spin-basis state, times a phase
per site, placed on two protocol levels; G is the complete graph state
``targets.complete_graph_state`` and ``[1, -i]/sqrt 2`` the
single-site vector of ``operators.product_state``:

  stage          spin state                  phase per site (up, down)   levels
  half-rotate    product of [1, -i]/sqrt 2   -                           up, down
  core           G                           (1, -i)                     up, down
  decouple       G                           (1, -1)                     up, r
  map-to-clock   G                           (-1, 1)                     0, 1

The simulation is pure-state; emission is budgeted separately by the
master-equation module.

A stage's couplings (drive transitions and dipolar flip-flops) conserve
per-site level classes, so its Hamiltonian splits into small blocks, and
the stage diagonalizes only the blocks the state reaches
(``operators.hermitian_blocks``), never the d^N x d^N matrix; blocks the
state does not reach stay exactly zero. This is symmetry-block exact
diagonalization (Sandvik, AIP Conf. Proc. 1297, 135 (2010)). The largest
block per stage grows from 8 / 8 / 3 / 12 / 12 at N=3 to
64 / 64 / 20 / 240 / 240 at N=6, well within the dense budget; the d^N
state vectors cap the protocol at six atoms (``MAX_STATE_DIM``).

Each stage is its drives over its own schedule: TRACE_POINTS_PER_STAGE
zero-field slices over a pulse, or the optimized field for the core.
Every reached block runs through ``grape.ClosedFormPropagator``, the
kernel exp(-i H t) exp(-i A Hz), at each slice boundary t_k with the area
so far, A(t_k) = dt (B_0 + ... + B_{k-1}). H holds the drives and the
interactions, and Hz is on only where the schedule carries a field; the
interactions conserve magnetization, so the field is one phase per
block, while drives join levels of different Hz: a stage with both is refused.
``run_stage`` returns the states at those boundaries; the timeline is
their reference populations, and the next stage starts from the last.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .chain import TWO_PI, ChainGeometry, build_control_hz_diagonal, rydberg_background
from .grape import ClosedFormPropagator, ControlSchedule
from .operators import (
    PROTOCOL_BASIS,
    SPIN_BASIS,
    basis_state,
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
    """One globally driven stage: its drives over its own schedule.

    schedule : the stage's time slices and field; its duration is the
        schedule's ``t_total``, finite and positive.
    drives : tuple of (level_a, level_b, rabi_rate) entries, each
        contributing (rate/2)(|a><b| + h.c.) on every atom; empty for the
        core stage.
    """

    label: str
    schedule: ControlSchedule
    drives: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        # the only outside value in a stage's blocks; the geometry's
        # interaction strengths are finite by its own checks
        for _, _, rate in self.drives:
            if not np.isfinite(rate):
                raise ValueError(f"drive rates must be finite, not {rate}")

    @classmethod
    def pulse(cls, label: str, duration: float, drives) -> "ProtocolStage":
        """A drive stage: TRACE_POINTS_PER_STAGE zero-field slices."""
        return cls(label, ControlSchedule(duration, np.zeros(TRACE_POINTS_PER_STAGE)), drives)

    @property
    def duration(self) -> float:
        return self.schedule.t_total

    @property
    def uses_core_schedule(self) -> bool:
        """True for the core stage, the one without drives."""
        return not self.drives


@dataclass(frozen=True)
class ProtocolPlan:
    """Stages run in order on one chain."""

    stages: tuple[ProtocolStage, ...]
    geometry: ChainGeometry

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites


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
    pulse = ProtocolStage.pulse
    stages = (
        pulse("prepare-up", np.pi / omega, (("up", "0", omega),)),
        pulse("half-rotate", np.pi / (2.0 * omega_a), (("down", "up", omega_a),)),
        ProtocolStage("core", core_schedule),
        pulse("decouple", np.pi / omega_b, (("r", "down", omega_b),)),
        pulse("map-to-clock", np.pi / omega, (("0", "up", omega), ("1", "r", omega))),
    )
    return ProtocolPlan(stages=stages, geometry=geometry)


def run_stage(state: np.ndarray, stage: ProtocolStage, plan: ProtocolPlan) -> np.ndarray:
    """Evolve through one stage: the (n_slices, d^N) stack of states at the
    slice boundaries of the stage's schedule after t = 0, its last row the
    stage's end state.

    One eigendecomposition per reached block (see the module docstring).
    The field's factorization needs one Hz value on every block; drives or
    a background that break it raise ``GrapeError``, a ValueError.
    """
    n, dim = plan.n_sites, PROTOCOL_BASIS.dim**plan.n_sites
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"state dim {state.shape} does not match operator dim {dim}")
    norm = np.linalg.norm(state)
    # written so that a NaN norm is refused too
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError(f"stage input state not normalized (norm {norm})")
    terms = [(0.5 * rate, {site: (a, b)}) for a, b, rate in stage.drives for site in range(n)]
    exchange, diagonal = rydberg_background(plan.geometry, PROTOCOL_BASIS)
    terms += exchange
    schedule = stage.schedule
    # Hz only under a field, since it does not commute with the drives
    field = schedule.amplitudes.any()
    hz = build_control_hz_diagonal(n, PROTOCOL_BASIS) if field else np.zeros(dim)
    times, areas = schedule.boundary_times[1:], schedule.boundary_areas[1:]
    states = np.zeros((len(times), dim), dtype=complex)
    for idx, h in hermitian_blocks(terms, diagonal, n, PROTOCOL_BASIS, np.flatnonzero(state)):
        states[:, idx] = ClosedFormPropagator(h, hz[idx]).states(state[idx], times, areas)
    return states


def _on_levels(spin_state: np.ndarray, level_for_up: str, level_for_down: str) -> np.ndarray:
    """A spin-basis state placed on two protocol levels: each amplitude
    goes to the row where every site holds ``level_for_up`` for up and
    ``level_for_down`` for down; every other row is zero."""
    n, d = spin_state.size.bit_length() - 1, PROTOCOL_BASIS.dim
    # the protocol level of each spin level, up then down (SPIN_BASIS order)
    levels = np.array([PROTOCOL_BASIS.index(level_for_up), PROTOCOL_BASIS.index(level_for_down)])
    rows = np.ravel_multi_index(levels[site_levels(n, SPIN_BASIS.dim)].T, (d,) * n)
    out = np.zeros(d**n, dtype=complex)
    # adding onto zeros turns -0.0 parts into +0.0, as a sum of kets does
    out[rows] += spin_state
    return out


def _reference_states(n_sites: int) -> dict[str, np.ndarray]:
    """Stage label -> the reference state at that stage's end (the module
    docstring's table), in the timeline's column order."""
    graph = complete_graph_state(n_sites)

    def phased(up: complex, down: complex) -> np.ndarray:
        return graph * product_state(np.array([up, down]), n_sites)

    rotated = product_state(np.array([1.0, -1.0j]) / np.sqrt(2.0), n_sites)
    return {
        "half-rotate": _on_levels(rotated, "up", "down"),
        "core": _on_levels(phased(1.0, -1.0j), "up", "down"),
        "decouple": _on_levels(phased(1.0, -1.0), "up", "r"),
        "map-to-clock": _on_levels(phased(-1.0, 1.0), "0", "1"),
    }


def run_full_protocol(plan: ProtocolPlan) -> ProtocolResult:
    """Execute all stages from the all-zero start.

    The timeline holds the populations of all four reference states at
    the start and at every slice boundary of every stage, for the trace
    CSV. Each stage's report takes its own reference's population from
    the stage's last row (none for prepare-up, which has no reference);
    the final report's is the graph state placed on the clock levels.
    """
    refs = _reference_states(plan.n_sites)
    state = basis_state(["0"] * plan.n_sites, PROTOCOL_BASIS)

    def pops(s: np.ndarray) -> tuple[float, float, float, float]:
        return tuple(float(abs(np.vdot(r, s)) ** 2) for r in refs.values())

    timeline = [(0.0, *pops(state), "start")]
    reports: list[StageReport] = []
    elapsed = 0.0
    for stage in plan.stages:
        states = run_stage(state, stage, plan)
        for t, s in zip(stage.schedule.boundary_times[1:], states):
            timeline.append((elapsed + float(t), *pops(s), stage.label))
        state = states[-1]
        elapsed += stage.duration
        end_pops = dict(zip(refs, timeline[-1][1:5]))
        reports.append(StageReport(stage.label, elapsed, end_pops.get(stage.label)))
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
