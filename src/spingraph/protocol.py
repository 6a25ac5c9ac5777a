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
the stage fills and diagonalizes only the blocks the state reaches (one
``operators.BlockPattern`` over the drives and the chain's memoised
``chain.drift_terms`` interactions), never the d^N x d^N matrix; blocks
the state does not reach stay exactly zero. The layouts come from
``operators.block_pattern``, memoised per (terms, N, basis, support of
the stage's input state) for the last 32 of them: a run has five, and
every later run on a chain of that size reuses them. As a stage moves
the state only within the blocks it reaches, ``_stage_layouts`` walks
them all from the all-zero start before any state is evolved, each
stage's support the rows the layout before it reaches.
This is symmetry-block exact diagonalization (Sandvik, AIP Conf. Proc.
1297, 135 (2010)). Blocks of one size go through one stacked ``eigh``:
20 calls per N=3 run for 69 blocks. The largest block per stage grows
from 8 / 8 / 3 / 12 / 12 at N=3 to 64 / 64 / 20 / 240 / 240 at N=6; the
largest filled buffer, map-to-clock's, from 1436681 entries at N=6 to
17233281 at N=7, beyond the block budget, so the walk caps the protocol
at six atoms.

Each standard stage is written once, in ``STANDARD_STAGES``, and built as
every evolution is, in ``grape``: ``_stage_terms`` gives the Hamiltonian
the layout walk reads, and ``_stage_kernels`` its read-only kernels.
``run_stage`` builds them afresh on every call, and ``run_full_protocol``
up to and including the core, which carries the schedule. The stages
after it, decouple and map-to-clock, are the same operators on every run
on a chain and hold its largest blocks, so they come from the one kernel
memo, which another geometry, delta_r or patched background misses. A
first run makes 20 ``eigh`` calls at N=3 and 28 at N=4; a repeat run on
the chain makes 8 and 11, with the same output bits.

Each stage is its drives over its own schedule: TRACE_POINTS_PER_STAGE
zero-field slices over a pulse, or the optimized field for the core.
Each stack of equal-size reached blocks runs through
``grape.ClosedFormPropagator``, the kernel exp(-i H t) exp(-i A Hz), at
each slice boundary t_k with the area so far, A(t_k) = dt (B_0 + ... +
B_{k-1}). H holds the drives and the interactions, and Hz is on only
where the schedule carries a field; the interactions conserve
magnetization, so the field is one phase per block (blocks of one stack
may differ in it), while drives join levels of different Hz: a stage
with both is refused. ``run_stage`` returns the states at those
boundaries, and the next stage starts from the last. The references
live on two levels per site, at most 3 * 2^N nonzero rows in all, so a
stage's timeline is one product there, |states[:, rows] @ bras|^2.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .chain import TWO_PI, ChainGeometry, RydbergModel
from .grape import ControlSchedule, _stage_kernels, _stage_terms
from .operators import (
    PROTOCOL_BASIS,
    SPIN_BASIS,
    basis_state,
    block_pattern,
    check_trace_stack,
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
    "check_stage_budget",
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
        # tuples, so that a stage hashes and keys the kernel memo
        object.__setattr__(self, "drives", tuple(map(tuple, self.drives)))
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


#: The standard plan's five stages in order, each written once: label,
#: drives and duration (None for the core, which runs the optimized schedule).
STANDARD_STAGES = (
    ("prepare-up", (("up", "0", OMEGA_TWO_PHOTON),), np.pi / OMEGA_TWO_PHOTON),
    ("half-rotate", (("down", "up", OMEGA_MICROWAVE_A),), np.pi / (2.0 * OMEGA_MICROWAVE_A)),
    ("core", (), None),
    ("decouple", (("r", "down", OMEGA_MICROWAVE_B),), np.pi / OMEGA_MICROWAVE_B),
    ("map-to-clock", (("0", "up", OMEGA_TWO_PHOTON), ("1", "r", OMEGA_TWO_PHOTON)),
     np.pi / OMEGA_TWO_PHOTON),
)


def standard_plan(geometry: ChainGeometry, core_schedule: ControlSchedule) -> ProtocolPlan:
    """The five stages of the module docstring at the OMEGA_* rates."""
    stages = tuple(
        ProtocolStage(label, core_schedule, drives) if duration is None
        else ProtocolStage.pulse(label, duration, drives)
        for label, drives, duration in STANDARD_STAGES
    )
    return ProtocolPlan(stages=stages, geometry=geometry)


def check_stage_budget(slices: int, n_sites: int) -> None:
    """Refuse a standard-plan run on a regular chain of ``n_sites`` atoms:
    a stage layout beyond the budget (``_stage_layouts``), then one d^N row
    per boundary of the core's ``slices`` slices beyond MAX_TRACE_STACK.
    Seven atoms are refused at map-to-clock, after the walk has built the
    four layouts before it: about 0.13 s and a 33 MB peak on a 2-core
    Xeon, of which 18.6 MB stays in the layout memos after the refusal."""
    _stage_layouts([drives for _, drives, _ in STANDARD_STAGES], ChainGeometry.regular(n_sites))
    dim = PROTOCOL_BASIS.dim**n_sites
    check_trace_stack({"slice boundaries": slices, "basis states": dim}, "stage", "amplitudes")


def run_stage(state: np.ndarray, stage: ProtocolStage, plan: ProtocolPlan) -> np.ndarray:
    """Evolve through one stage: the (n_slices, d^N) stack of states at the
    slice boundaries of the stage's schedule after t = 0, its last row the
    stage's end state. A stack beyond MAX_TRACE_STACK amplitudes is refused
    before it is allocated.

    One stacked eigendecomposition per size of the reached blocks (see
    the module docstring), made afresh on every call. The field's
    factorization needs one Hz value on every block; drives or a
    background that break it raise ``GrapeError``, a ValueError.
    """
    return _evolve(state, stage, plan, _stage_kernels.__wrapped__)


def _evolve(state, stage: ProtocolStage, plan: ProtocolPlan, kernels, layout=None) -> np.ndarray:
    """``run_stage`` with the stage's kernels taken from ``kernels``:
    ``grape._stage_kernels`` or its unmemoised builder, called with
    ``layout`` (by default, the input state's), the chain's model, the
    protocol basis, the stage's drives and its field flag."""
    dim = PROTOCOL_BASIS.dim**plan.n_sites
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"state dim {state.shape} does not match operator dim {dim}")
    norm = np.linalg.norm(state)
    # written so that a NaN norm is refused too
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError(f"stage input state not normalized (norm {norm})")
    schedule = stage.schedule
    times, areas = schedule.boundary_times[1:], schedule.boundary_areas[1:]
    check_trace_stack({"slice boundaries": len(times), "basis states": dim}, "stage", "amplitudes")
    if layout is None:
        [layout] = _stage_layouts([stage.drives], plan.geometry, np.flatnonzero(state))
    # Hz only under a field, since it does not commute with the drives
    field = bool(schedule.amplitudes.any())
    states = np.zeros((len(times), dim), dtype=complex)
    model = RydbergModel(plan.geometry)
    for idx, kernel, _ in kernels(layout, model, PROTOCOL_BASIS, stage.drives, field):
        # (blocks, times, k) from the propagator, (times, blocks, k) here
        states[:, idx] = kernel.states(state[idx], times, areas).swapaxes(0, 1)
    return states


def _stage_layouts(drives, geometry: ChainGeometry, support=(0,)) -> list:
    """The one layout lookup, before any state is evolved: the
    ``block_pattern`` of each stage's ``_stage_terms`` on ``geometry``.
    The first stage's support is ``support`` (the all-zero ket's row),
    each later one the ``reached`` rows of the layout before it. Refuses a
    layout beyond the budget as it is built."""
    layouts = []
    for stage in drives:
        terms = _stage_terms(RydbergModel(geometry), PROTOCOL_BASIS, stage)[0]
        layouts.append(block_pattern(terms, geometry.n_sites, PROTOCOL_BASIS, support))
        support = layouts[-1].reached
    return layouts


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


def _reference_bras(refs: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The references' nonzero rows (at most 3 * 2^N) and their conjugates there, (rows, 4)."""
    stacked = np.array(list(refs.values()))
    rows = np.flatnonzero(stacked.any(axis=0))
    return rows, stacked[:, rows].conj().T


def run_full_protocol(plan: ProtocolPlan) -> ProtocolResult:
    """Execute all stages from the all-zero start.

    The timeline holds the populations of all four reference states at
    the start and at every slice boundary, one product per stage on the
    references' nonzero rows, for the trace CSV. Each stage's report takes
    its own reference's population from the stage's last row (none for
    prepare-up); the final report's is the graph state on the clock levels.
    """
    layouts = _stage_layouts([stage.drives for stage in plan.stages], plan.geometry)
    refs = _reference_states(plan.n_sites)
    rows, bras = _reference_bras(refs)
    state = basis_state(["0"] * plan.n_sites, PROTOCOL_BASIS)

    def pops(states: np.ndarray) -> list:
        return (np.abs(states[..., rows] @ bras) ** 2).tolist()

    timeline = [(0.0, *pops(state), "start")]
    reports: list[StageReport] = []
    elapsed = 0.0
    # the stages before the core and the core run afresh; those after it
    # take their kernels from the memo, as they recur on every run
    kernels = _stage_kernels.__wrapped__
    for stage, layout in zip(plan.stages, layouts):
        states = _evolve(state, stage, plan, kernels, layout)
        times = (elapsed + stage.schedule.boundary_times[1:]).tolist()
        timeline.extend((t, *p, stage.label) for t, p in zip(times, pops(states)))
        state = states[-1]
        elapsed += stage.duration
        end_pops = dict(zip(refs, timeline[-1][1:5]))
        reports.append(StageReport(stage.label, elapsed, end_pops.get(stage.label)))
        if stage.uses_core_schedule:
            kernels = _stage_kernels
    return ProtocolResult(
        final_state=state,
        stage_reports=reports,
        timeline=timeline,
        total_duration=elapsed,
    )


def write_timeline_csv(path, timeline) -> None:
    """Write the timeline in one write, as ``csv.writer`` would: values as
    repr(float(x)), each stage label quoted by ``csv`` once."""
    labels = {}
    for label in {row[5] for row in timeline}:  # behind an empty field: csv quotes a lone ""
        csv.writer(buf := io.StringIO()).writerow(["", label])
        labels[label] = buf.getvalue()[1:-2]
    lines = ["time_us,pop_product,pop_core_graph,pop_decoupled,pop_clock,stage\r\n"]
    lines += (f"{float(t)!r},{float(a)!r},{float(b)!r},{float(c)!r},{float(d)!r},{labels[s]}\r\n"
              for t, a, b, c, d, s in timeline)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))
