"""Stage-by-stage protocol checks on the 5-level basis."""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

import spingraph.chain as chain
import spingraph.grape as grape
import spingraph.protocol as protocol
from spingraph.chain import ChainGeometry, RydbergModel, assemble_system, build_control_hz
from spingraph.dynamics import closed_system_trace
from spingraph.grape import (
    ControlSchedule,
    GrapeConfig,
    GrapeError,
    GuessSpec,
    load_result,
    optimize,
    schedule_from_record,
)
from spingraph.operators import (
    PROTOCOL_BASIS,
    BlockPattern,
    basis_state,
    embed_local_operator,
    evolve_unitary,
    hermitian_sum,
    product_state,
    site_levels,
)
from spingraph.protocol import (
    OMEGA_MICROWAVE_A,
    OMEGA_MICROWAVE_B,
    OMEGA_TWO_PHOTON,
    STANDARD_STAGES,
    TRACE_POINTS_PER_STAGE,
    ProtocolStage,
    run_full_protocol,
    run_stage,
    standard_plan,
    write_timeline_csv,
)
from spingraph.targets import TargetForm, complete_graph_state, plus_product_state

from kron_reference import SIGMA_X, kron_drive_hamiltonian, spin_half_operator

TWO_PI = 2.0 * np.pi


def switch_off_interactions(monkeypatch):
    """Every later protocol stage runs its drives and field alone: the
    background on the protocol basis has no exchange terms and a zero
    diagonal. The spin basis keeps its drift, so the spin path is not
    silenced with it."""
    original = grape.drift_terms

    def no_background(model, basis, *positions):
        if basis != PROTOCOL_BASIS:
            return original(model, basis, *positions)
        return (), np.zeros(0), np.zeros(basis.dim**model.n_sites)

    monkeypatch.setattr(grape, "drift_terms", no_background)


@pytest.fixture
def no_interactions(monkeypatch):
    switch_off_interactions(monkeypatch)


def plan_for(n_sites=2, core_amplitudes=(0.0,), core_t=0.1):
    """The standard stage sequence on a regular chain."""
    return standard_plan(
        ChainGeometry.regular(n_sites),
        ControlSchedule(t_total=core_t, amplitudes=np.asarray(core_amplitudes, float)),
    )


def level_population(state, level, n_sites):
    """Total population of one local level, summed over sites and configs."""
    d = PROTOCOL_BASIS.dim
    idx = PROTOCOL_BASIS.index(level)
    tensor = np.abs(state.reshape((d,) * n_sites)) ** 2
    total = 0.0
    for site in range(n_sites):
        total += np.sum(np.take(tensor, idx, axis=site))
    return total


def test_stage_durations_and_total():
    plan = standard_plan(
        ChainGeometry.regular(3),
        ControlSchedule(t_total=0.141, amplitudes=np.zeros(10)),
    )
    durations = [s.duration for s in plan.stages]
    assert durations[0] == pytest.approx(0.125)
    assert durations[1] == pytest.approx(1.0 / 280.0)
    assert durations[2] == pytest.approx(0.141)
    assert durations[3] == pytest.approx(0.0025)
    assert durations[4] == pytest.approx(0.125)
    assert sum(durations) == pytest.approx(0.125 + 1.0 / 280.0 + 0.141 + 0.0025 + 0.125)
    assert sum(durations) == pytest.approx(0.3970714285714286)
    assert [s.label for s in plan.stages] == [
        "prepare-up",
        "half-rotate",
        "core",
        "decouple",
        "map-to-clock",
    ]
    assert OMEGA_TWO_PHOTON == pytest.approx(TWO_PI * 4.0)
    assert OMEGA_MICROWAVE_A == pytest.approx(TWO_PI * 70.0)
    assert OMEGA_MICROWAVE_B == pytest.approx(TWO_PI * 200.0)


def test_each_stage_lasts_its_own_schedule():
    # the core stage lasts the core schedule's T, and drive stages keep
    # their own durations
    plan = standard_plan(
        ChainGeometry.regular(3), ControlSchedule(t_total=0.141, amplitudes=np.zeros(10))
    )
    assert plan.stages[2].duration == plan.stages[2].schedule.t_total == 0.141
    assert [s.uses_core_schedule for s in plan.stages] == [False, False, True, False, False]
    # each stage is the one row of the table that describes it
    for stage, (label, drives, duration) in zip(plan.stages, STANDARD_STAGES, strict=True):
        assert (stage.label, stage.drives) == (label, drives)
        assert stage.duration == (0.141 if duration is None else duration)
    stages = list(plan.stages)
    stages[0] = ProtocolStage.pulse(stages[0].label, 1.0, stages[0].drives)
    assert sum(s.duration for s in stages) == pytest.approx(
        sum(s.duration for s in plan.stages) + 1.0 - np.pi / OMEGA_TWO_PHOTON
    )


def test_pi_pulse_transfers_zero_to_up(no_interactions):
    plan = plan_for()
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    out = run_stage(state, plan.stages[0], plan)[-1]
    target = product_state(basis_state(["up"], PROTOCOL_BASIS), 2)
    assert abs(np.vdot(target, out)) ** 2 == pytest.approx(1.0, abs=1e-12)
    # each atom picks up -i from the half rotation
    assert np.vdot(target, out) == pytest.approx(-1.0, abs=1e-12)


def test_half_pulse_phase_convention(no_interactions):
    plan = plan_for()
    state = product_state(basis_state(["up"], PROTOCOL_BASIS), 2)
    out = run_stage(state, plan.stages[1], plan)[-1]
    single = np.zeros(PROTOCOL_BASIS.dim, dtype=complex)
    single[PROTOCOL_BASIS.index("up")] = 1.0 / np.sqrt(2.0)
    single[PROTOCOL_BASIS.index("down")] = -1.0j / np.sqrt(2.0)
    np.testing.assert_allclose(out, product_state(single, 2), atol=1e-12)


def test_decouple_pulse_empties_down_level(no_interactions):
    plan = plan_for()
    single = np.zeros(PROTOCOL_BASIS.dim, dtype=complex)
    single[PROTOCOL_BASIS.index("up")] = 1.0 / np.sqrt(2.0)
    single[PROTOCOL_BASIS.index("down")] = -1.0j / np.sqrt(2.0)
    state = product_state(single, 2)
    out = run_stage(state, plan.stages[3], plan)[-1]
    assert level_population(out, "down", 2) < 1e-12
    assert level_population(out, "r", 2) == pytest.approx(1.0, abs=1e-12)


def single_atom_stages(plan):
    """Oracle without interactions: the one-atom state after each stage,
    from the exact 5x5 evolution of the stage's drive (or field) term."""
    basis = PROTOCOL_BASIS
    local = basis_state(["0"], basis)
    hz = np.diag([{"up": 0.5, "down": -0.5}.get(name, 0.0) for name in basis.levels])
    out = []
    for stage in plan.stages:
        if stage.uses_core_schedule:
            local = evolve_unitary(hz, stage.schedule.field_area, local)
        else:
            local = evolve_unitary(kron_drive_hamiltonian(stage.drives, 1), stage.duration, local)
        out.append(local)
    return out


def test_drive_only_protocol_hits_stage_references(no_interactions):
    # without interactions the first two stages are perfect single-atom
    # rotations, and decoupling plus mapping stay complete transfers; every
    # stage is a product of exact single-atom evolutions
    for n in (2, 5, 6):
        plan = plan_for(n, core_amplitudes=np.linspace(-3.0, 7.0, 5), core_t=0.05)
        result = run_full_protocol(plan)
        by_label = {r.label: r.reference_population for r in result.stage_reports}
        assert by_label["prepare-up"] is None
        assert by_label["half-rotate"] == pytest.approx(1.0, abs=1e-10)
        assert abs(np.linalg.norm(result.final_state) - 1.0) < 1e-10
        assert level_population(result.final_state, "up", n) < 1e-12
        assert level_population(result.final_state, "down", n) < 1e-12
        assert level_population(result.final_state, "r", n) < 1e-12
        state = basis_state(["0"] * n, PROTOCOL_BASIS)
        for stage, local in zip(plan.stages, single_atom_stages(plan)):
            state = run_stage(state, stage, plan)[-1]
            np.testing.assert_allclose(state, product_state(local, n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.final_state, state, rtol=0, atol=1e-12)


def test_stage_validation():
    plan = plan_for()
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    with pytest.raises(ValueError):
        run_stage(2.0 * state, plan.stages[0], plan)
    # the drive rate is the one value in a stage's blocks that no other
    # check covers, so the stage refuses a non-finite one when it is built
    for rate in (float("nan"), float("inf"), -float("inf")):
        drives = (("up", "0", OMEGA_TWO_PHOTON), ("1", "r", rate))
        with pytest.raises(ValueError, match=f"^drive rates must be finite, not {rate}$"):
            ProtocolStage.pulse("bad", 0.1, drives)
        with pytest.raises(ValueError, match=f"^drive rates must be finite, not {rate}$"):
            ProtocolStage("bad", ControlSchedule(0.1, np.zeros(3)), drives)


def test_stage_refuses_a_state_that_is_not_finite():
    # abs(nan - 1) > tol is False, so the norm check must be written to fail
    # on NaN; an infinite entry has an infinite norm
    plan = plan_for()
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    for bad in (np.nan, np.inf):
        broken = state.copy()
        broken[0] = bad
        with pytest.raises(ValueError, match="not normalized"):
            run_stage(broken, plan.stages[0], plan)


def test_stage_refuses_a_duration_that_is_not_positive():
    # a stage lasts its schedule, which refuses zero, negative and NaN
    # durations; a NaN duration once ran through every stage to NaN
    # populations
    for duration in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="t_total must be finite and positive"):
            ProtocolStage.pulse("noop", duration, (("up", "0", 1.0),))
        with pytest.raises(ValueError, match="t_total must be finite and positive"):
            plan_for(core_t=duration)


def test_stage_refuses_drives_during_a_field():
    # the field enters as a phase only while it commutes with H; a drive
    # between levels of different Hz breaks that and is refused, not ignored
    plan = plan_for()
    mixed = ProtocolStage(
        "mixed", ControlSchedule(0.1, np.ones(3)), (("up", "0", OMEGA_TWO_PHOTON),)
    )
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    with pytest.raises(GrapeError, match="commute"):
        run_stage(state, mixed, plan)
    # the same drives over a zero field run
    still = ProtocolStage("still", ControlSchedule(0.1, np.zeros(3)), mixed.drives)
    assert abs(np.linalg.norm(run_stage(state, still, plan)[-1]) - 1.0) < 1e-12


def test_dimension_budget():
    # six atoms run (see the block tests); seven are refused at once, before
    # any stage, by the map-to-clock layout's buffer
    plan = standard_plan(
        ChainGeometry.regular(7),
        ControlSchedule(t_total=0.1, amplitudes=np.zeros(2)),
    )
    start = time.perf_counter()
    message = "^17233281 block entries exceed the block budget of 10000000 entries$"
    with pytest.raises(ValueError, match=message):
        run_full_protocol(plan)
    assert time.perf_counter() - start < 1.0


def test_mapped_graph_state_amplitudes():
    # the core reference: the graph state on (up, down), -i per down-spin
    n = 3
    cgs = complete_graph_state(n)
    mapped = protocol._reference_states(n)["core"]
    assert abs(np.linalg.norm(mapped) - 1.0) < 1e-12
    for code in range(2**n):
        bits = [(code >> (n - 1 - site)) & 1 for site in range(n)]
        labels = ["down" if b else "up" for b in bits]
        expected = cgs[code] * (-1.0j) ** sum(bits)
        assert mapped[np.nonzero(basis_state(labels, PROTOCOL_BASIS))[0][0]] == pytest.approx(
            expected
        )


def test_mapped_graph_state_role_relabeling():
    # the map-to-clock reference: the graph state on (0, 1), -1 per up-spin
    mapped = protocol._reference_states(2)["map-to-clock"]
    # configuration 0,0 has two up-spins: sign -1 from the graph state and
    # (-1)^2 from the per-up factor
    assert mapped[np.nonzero(basis_state(["0", "0"], PROTOCOL_BASIS))[0][0]] == pytest.approx(-0.5)
    assert mapped[np.nonzero(basis_state(["1", "1"], PROTOCOL_BASIS))[0][0]] == pytest.approx(0.5)
    assert mapped[np.nonzero(basis_state(["0", "1"], PROTOCOL_BASIS))[0][0]] == pytest.approx(-0.5)


def test_full_protocol_with_optimized_core(core_result):
    plan = standard_plan(ChainGeometry.regular(3), core_result.schedule)
    result = run_full_protocol(plan)
    assert result.total_duration == pytest.approx(0.125 + 1.0 / 280.0 + 0.141 + 0.0025 + 0.125)
    pops = {r.label: r.reference_population for r in result.stage_reports}
    assert pops["half-rotate"] >= 0.99
    assert pops["core"] >= 0.99
    assert pops["decouple"] >= 0.99
    assert pops["map-to-clock"] >= 0.99
    # interactions during the transfer stages cost a fraction of a percent
    assert pops["map-to-clock"] == pytest.approx(0.993114, abs=5e-4)
    assert abs(np.linalg.norm(result.final_state) - 1.0) < 1e-8


def test_timeline_structure(core_result):
    plan = standard_plan(ChainGeometry.regular(3), core_result.schedule)
    result = run_full_protocol(plan)
    n_core = core_result.schedule.n_slices
    assert len(result.timeline) == 1 + 20 * 4 + n_core
    times = [row[0] for row in result.timeline]
    assert times == sorted(times)
    assert result.timeline[0][5] == "start"
    assert result.timeline[-1][5] == "map-to-clock"
    assert times[-1] == pytest.approx(result.total_duration)
    for row in result.timeline:
        for pop in row[1:5]:
            assert -1e-12 <= pop <= 1.0 + 1e-12


def test_write_timeline_csv(tmp_path, core_result):
    plan = standard_plan(ChainGeometry.regular(3), core_result.schedule)
    result = run_full_protocol(plan)
    path = tmp_path / "timeline.csv"
    write_timeline_csv(path, result.timeline)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "time_us",
        "pop_product",
        "pop_core_graph",
        "pop_decoupled",
        "pop_clock",
        "stage",
    ]
    assert len(rows) == 1 + len(result.timeline)
    assert float(rows[-1][4]) == pytest.approx(0.993114, abs=5e-4)


def test_timeline_csv_is_csv_writers_bytes(tmp_path):
    """write_timeline_csv writes exactly the bytes of csv.writer given each
    value as repr(float(x)): np.float64 values, signed zeros, subnormals
    and non-finite values, and labels csv must quote (a comma, a double
    quote, a newline, a carriage return) or may not (empty, non-ASCII),
    each over several rows."""
    labels = ["start", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "π/2 → clock"]
    values = np.random.default_rng(7).random((3 * len(labels), 5))
    values[:3, 2:] = [[-0.0, 5e-324, np.inf], [np.nan, -np.inf, 1.0], [0.0, 1e300, -1e-7]]
    timeline = [(*row, labels[i // 3]) for i, row in enumerate(values)]
    assert all(type(x) is np.float64 for row in timeline for x in row[:5])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_timeline_csv(got, timeline)
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time_us", "pop_product", "pop_core_graph", "pop_decoupled", "pop_clock", "stage"]
        )
        for row in timeline:
            writer.writerow([repr(float(x)) for x in row[:5]] + [row[5]])
    assert got.read_bytes() == want.read_bytes()
    with open(got, newline="", encoding="utf-8") as fh:
        assert [row[5] for row in list(csv.reader(fh))[1:]] == [row[5] for row in timeline]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drive_hamiltonian_matches_kron_reference(n, monkeypatch, no_interactions):
    """The blocks run_stage hands to the propagator, interactions off: each
    equals the kron reference on its indices, and the reference couples no
    reached index to an unreached one. A state on every basis index reaches
    every block, so there the blocks rebuild the whole reference."""
    blocks, seen = [], []

    original_fill = BlockPattern.fill

    def recording_fill(self, *args):
        out = original_fill(self, *args)
        blocks.extend(out)
        return out

    class RecordingPropagator:
        def __init__(self, h, hz_diag):
            seen.append(h)

        def states(self, psi, t, area):
            return np.zeros(psi.shape[:-1] + (np.size(t), psi.shape[-1]), dtype=complex)

    # on the class, so the memoised layouts record their fills too
    monkeypatch.setattr(BlockPattern, "fill", recording_fill)
    monkeypatch.setattr(grape, "ClosedFormPropagator", RecordingPropagator)
    plan = plan_for(n, core_amplitudes=np.zeros(2))
    dim = PROTOCOL_BASIS.dim**n
    starts = (basis_state(["0"] * n, PROTOCOL_BASIS), np.full(dim, dim**-0.5, dtype=complex))
    for state in starts:
        for stage in plan.stages:
            run_stage(state, stage, plan)
            reference = kron_drive_hamiltonian(stage.drives, n)
            got = np.zeros_like(reference)
            for (stack_idx, stack), h in zip(blocks, seen, strict=True):
                assert h is stack
                for idx, block in zip(stack_idx, stack, strict=True):
                    got[np.ix_(idx, idx)] = block
            reached = np.concatenate([idx.ravel() for idx, _ in blocks])
            assert len(np.unique(reached)) == len(reached)
            assert np.all(np.isin(np.flatnonzero(state), reached))
            assert np.array_equal(got[reached], reference[reached])
            if len(reached) == dim:
                assert np.array_equal(got, reference)
            blocks.clear()
            seen.clear()


def basis_ket_graph_state(
    n, level_for_up, level_for_down, factor_per_down, factor_per_up, graph_signs=True
):
    """Reference: the graph state as an explicit sum of relabeled basis kets.
    Without ``graph_signs`` it is the expanded tensor product whose
    single-site amplitudes are the two factors."""
    out = np.zeros(PROTOCOL_BASIS.dim**n, dtype=complex)
    for code in range(2**n):
        bits = [(code >> (n - 1 - site)) & 1 for site in range(n)]
        m_up = bits.count(0)
        amp = (-1.0) ** (m_up * (m_up - 1) // 2) / np.sqrt(2.0**n) if graph_signs else 1.0
        for b in bits:
            amp *= factor_per_down if b else factor_per_up
        labels = [level_for_down if b else level_for_up for b in bits]
        out += amp * basis_state(labels, PROTOCOL_BASIS)
    return out


#: Stage label -> its reference's basis-ket oracle arguments after n.
REFERENCE_ROLES = {
    "core": ("up", "down", -1.0j, 1.0),
    "decouple": ("up", "r", -1.0, 1.0),
    "map-to-clock": ("0", "1", 1.0, -1.0),
    "half-rotate": ("up", "down", -1.0j / np.sqrt(2.0), 1.0 / np.sqrt(2.0), False),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("roles", [(label, *args) for label, args in REFERENCE_ROLES.items()])
def test_mapped_graph_state_matches_basis_ket_sum(n, roles):
    """Each protocol reference is its sum of basis kets, with norm 1."""
    label, *args = roles
    reference = protocol._reference_states(n)[label]
    assert np.array_equal(reference, basis_ket_graph_state(n, *args))
    assert abs(np.linalg.norm(reference) - 1.0) < 1e-12


def stepwise_stage(state, stage, plan, interactions=True):
    """Reference: the per-slice product of exp(-i (h + B_k Hz) dt) over the
    stage's schedule, h the dense drift plus the kron drive. Returns the
    (t_local, state) pair at every slice boundary after t_local = 0, in
    order."""
    basis = PROTOCOL_BASIS
    h = kron_drive_hamiltonian(stage.drives, plan.n_sites)
    if interactions:
        h = h + assemble_system(RydbergModel(plan.geometry), basis)
    hz = build_control_hz(plan.n_sites, basis)
    schedule = stage.schedule
    # evolve_unitary's formula, with each distinct slice diagonalized once
    spectra = {}
    points = []
    for k, amplitude in enumerate(schedule.amplitudes):
        if amplitude not in spectra:
            spectra[amplitude] = np.linalg.eigh(h + amplitude * hz)
        w, v = spectra[amplitude]
        state = v @ (np.exp(-1j * w * schedule.dt) * (v.conj().T @ state))
        points.append(((k + 1) * schedule.dt, state))
    return points


def run_filled(state, stage, plan, cast, monkeypatch):
    """``run_stage`` with each fill's coefficients passed through ``cast``,
    and the dtypes of the blocks it filled."""
    original, dtypes = protocol.block_pattern, set()

    class Pattern:
        def __init__(self, *args):
            self.layout = original(*args)
            self.reached = self.layout.reached

        def fill(self, coeffs, diagonal):
            blocks = self.layout.fill(cast(np.asarray(coeffs)), diagonal)
            dtypes.update(h.dtype for _, h in blocks)
            return blocks

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "block_pattern", Pattern)
        return run_stage(state, stage, plan), dtypes


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("interactions", [True, False])
def test_run_stage_matches_stepwise_product(n, interactions, monkeypatch):
    # drive rates and interactions are real, so every stage fills real
    # symmetric blocks; the same stage on complex Hermitian blocks, and the
    # stepwise product of dense kron-built slices, give the same states
    if not interactions:
        switch_off_interactions(monkeypatch)
    plan = plan_for(n, core_amplitudes=[-9.8, 3.1, -12.4], core_t=0.15)
    state = basis_state(["0"] * n, PROTOCOL_BASIS)
    for stage in plan.stages:
        out, real = run_filled(state, stage, plan, lambda c: c, monkeypatch)
        hermitian, filled = run_filled(state, stage, plan, lambda c: c + 0j, monkeypatch)
        assert real == {np.dtype(np.float64)} and filled == {np.dtype(complex)}
        assert np.array_equal(out, run_stage(state, stage, plan))
        np.testing.assert_allclose(out, hermitian, rtol=0, atol=1e-13)
        reference = stepwise_stage(state, stage, plan, interactions)
        traced = 3 if stage.uses_core_schedule else TRACE_POINTS_PER_STAGE
        assert out.shape == (traced, PROTOCOL_BASIS.dim**n) and len(reference) == traced
        assert list(stage.schedule.boundary_times[1:]) == [t for t, _ in reference]
        for got, (_, want) in zip(out, reference):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        state = reference[-1][1]


def stage_references(n):
    """The four tracked references, in the timeline's column order, keyed
    by the stage whose end they describe, from the basis-ket oracle."""
    labels = ("half-rotate", "core", "decouple", "map-to-clock")
    return {label: basis_ket_graph_state(n, *REFERENCE_ROLES[label]) for label in labels}


@pytest.mark.parametrize("n", [3, 4, 6])
def test_timeline_is_the_stacks_run_stage_returns(n):
    """Each stage's timeline rows are the tracked populations of exactly
    the rows run_stage returns, chained from the all-zero start, at
    elapsed + boundary_times[1:]: each population within 1e-15 of the
    per-row vdot, as the timeline sums its overlaps in one product per
    stage, and the times, labels, end times and final state bit for bit.
    Each report's population is its reference's value on the stage's last
    row; the memoised post-core kernels give run_stage's bits."""
    core = ControlSchedule(t_total=0.15, amplitudes=np.array([-9.8, 3.1, -12.4]))
    plan = standard_plan(ChainGeometry.regular(n), core)
    grape._stage_kernels.cache_clear()
    result = run_full_protocol(plan)
    stacks, state = [], basis_state(["0"] * n, PROTOCOL_BASIS)
    for stage in plan.stages:
        stacks.append(run_stage(state, stage, plan))
        state = stacks[-1][-1]
    refs = stage_references(n)
    column = {label: 1 + i for i, label in enumerate(refs)}
    assert len(stacks) == len(plan.stages)
    assert result.timeline[0][5] == "start"
    rows = iter(result.timeline[1:])
    elapsed = 0.0
    for stage, stack, report in zip(plan.stages, stacks, result.stage_reports, strict=True):
        for t, state in zip(stage.schedule.boundary_times[1:], stack, strict=True):
            row = next(rows)
            assert (row[0], row[5]) == (elapsed + t, stage.label)
            oracle = [abs(np.vdot(r, state)) ** 2 for r in refs.values()]
            assert all(type(pop) is float for pop in row[1:5])
            np.testing.assert_allclose(row[1:5], oracle, rtol=0, atol=1e-15)
        elapsed += stage.duration
        assert (report.label, report.end_time) == (stage.label, elapsed)
        if stage.label in refs:
            assert report.reference_population == row[column[stage.label]]
            oracle = abs(np.vdot(refs[stage.label], stack[-1])) ** 2
            assert abs(report.reference_population - oracle) <= 1e-15
        else:
            assert report.reference_population is None
    assert next(rows, None) is None
    assert np.array_equal(result.final_state, stacks[-1][-1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_references_vanish_outside_the_timeline_rows(n):
    """Every reference state is exactly zero outside the rows the timeline's
    product reads, so that product leaves out no term of any overlap; the
    rows are the three two-level sets, (up, down), (up, r) and (0, 1),
    which share only the all-up row."""
    refs = protocol._reference_states(n)
    rows, bras = protocol._reference_bras(refs)
    outside = np.ones(PROTOCOL_BASIS.dim**n, dtype=bool)
    outside[rows] = False
    for ref in refs.values():
        assert not ref[outside].any()
    assert len(rows) == 3 * 2**n - 1
    assert np.array_equal(bras, np.array([ref[rows].conj() for ref in refs.values()]).T)


def test_full_protocol_diagonalizes_once_per_block_size(monkeypatch, core_result):
    """One stacked eigh per distinct block size of each stage it builds,
    which together decompose exactly the reached blocks, each once, and
    never a d^N x d^N matrix; pins the call counts and the largest block
    of every stage at N=3 and N=4. A first run builds all five stages; a
    repeat run on the chain builds only those up to the core, as decouple
    and map-to-clock come from the memo."""
    calls, blocks = [], []
    original_eigh, original_kernels = np.linalg.eigh, grape._build_kernels
    original_fill = BlockPattern.fill

    def counting_eigh(a, *args, **kwargs):
        calls[-1].append(a.shape)
        return original_eigh(a, *args, **kwargs)

    def recording_fill(self, *args):
        out = original_fill(self, *args)
        blocks.append([idx for idx, _ in out])
        return out

    def marking_kernels(*args):
        calls.append([])
        return original_kernels(*args)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # on the class, so the memoised layouts record their fills too
    monkeypatch.setattr(BlockPattern, "fill", recording_fill)
    monkeypatch.setattr(grape, "_build_kernels", marking_kernels)
    largest = {3: [8, 8, 3, 12, 12], 4: [16, 16, 6, 32, 32]}
    # (first run, repeat run)
    eigh_calls = {3: (20, 8), 4: (28, 11)}
    grape._stage_kernels.cache_clear()
    for n, schedule in ((3, core_result.schedule), (4, ControlSchedule(0.172, np.ones(4)))):
        plan = standard_plan(ChainGeometry.regular(n), schedule)
        for built, eigh_count in zip((len(plan.stages), 3), eigh_calls[n], strict=True):
            calls.clear()
            blocks.clear()
            run_full_protocol(plan)
            assert len(calls) == len(blocks) == built
            for stage_calls, stacks in zip(calls, blocks):
                # one (S, k, k) call per (S, k) stack of distinct size k, and
                # every reached index in one block
                assert stage_calls == [(s, k, k) for s, k in (idx.shape for idx in stacks)]
                assert len({idx.shape[1] for idx in stacks}) == len(stacks)
                reached = np.concatenate([idx.ravel() for idx in stacks])
                assert len(np.unique(reached)) == len(reached)
            assert sum(map(len, calls)) == eigh_count
            assert [max(shape[-1] for shape in c) for c in calls] == largest[n][:built]
            if built == len(plan.stages):
                # the last stage reaches every basis index
                assert sum(idx.size for idx in blocks[-1]) == PROTOCOL_BASIS.dim**n


def protocol_bits(result):
    """Everything a run returns, compared bit for bit."""
    return (result.final_state.tobytes(), result.stage_reports, result.timeline,
            result.total_duration)


def memo_counts():
    info = grape._stage_kernels.cache_info()
    return info.hits, info.misses


@pytest.mark.parametrize("first", ["optimize", "protocol"])
def test_the_spin_path_and_the_protocol_keep_separate_memo_entries(first):
    """On the N=3 chain the ascent and the full protocol share one kernel
    memo: in either order on a cleared memo, each returns the bits of its
    run alone, from its own entries (one spin chain, two post-core stages)."""
    config = GrapeConfig(
        RydbergModel(ChainGeometry.regular(3)), 0.141,
        GuessSpec(kind="random", b0=TWO_PI, seed=1), TargetForm.OPERATOR_PRODUCT,
    )
    plan = plan_for(3, core_amplitudes=[-9.8, 3.1, -12.4], core_t=0.15)

    def ascent_bits():
        result = optimize(config)
        return (result.schedule.amplitudes.tobytes(), result.phi_history,
                result.final_population, result.converged)

    runs = {"optimize": ascent_bits, "protocol": lambda: protocol_bits(run_full_protocol(plan))}
    alone = {}
    for name, run in runs.items():
        grape._stage_kernels.cache_clear()
        alone[name] = run()
    grape._stage_kernels.cache_clear()
    together = {name: runs[name]() for name in sorted(runs, key=lambda name: name != first)}
    assert together == alone
    assert memo_counts() == (0, 3) and grape._stage_kernels.cache_info().currsize == 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_repeat_run_equals_a_run_on_a_cleared_memo(n):
    """A repeat run takes decouple and map-to-clock from the memo and
    returns the bits of a run that decomposed them afresh."""
    plan = plan_for(n, core_amplitudes=[-9.8, 3.1, -12.4], core_t=0.15)
    grape._stage_kernels.cache_clear()
    fresh = run_full_protocol(plan)
    assert memo_counts() == (0, 2)
    repeat = run_full_protocol(plan)
    assert memo_counts() == (2, 2)
    assert protocol_bits(repeat) == protocol_bits(fresh)


def test_a_second_core_schedule_hits_the_memo():
    """The post-core kernels do not depend on the core's field: another
    schedule on the chain reuses them and equals its fresh run."""
    first, second = plan_for(4, [1.0, -2.0]), plan_for(4, [-9.8, 3.1, -12.4], core_t=0.15)
    grape._stage_kernels.cache_clear()
    run_full_protocol(first)
    reused = run_full_protocol(second)
    assert memo_counts() == (2, 2)
    grape._stage_kernels.cache_clear()
    assert protocol_bits(reused) == protocol_bits(run_full_protocol(second))


def test_a_displaced_atom_or_delta_r_misses_the_memo():
    plan = plan_for(3, [1.0, -2.0])
    displaced = plan.geometry.positions.copy()
    displaced[2, 2] += 1e-6
    grape._stage_kernels.cache_clear()
    run_full_protocol(plan)
    for geometry in (ChainGeometry(displaced), plan.geometry.with_delta_r(0.01)):
        moved = standard_plan(geometry, plan.stages[2].schedule)
        hits, misses = memo_counts()
        after = protocol_bits(run_full_protocol(moved))
        assert memo_counts() == (hits, misses + 2)
        grape._stage_kernels.cache_clear()
        assert after == protocol_bits(run_full_protocol(moved))


def test_a_patched_background_and_the_real_one_never_share_kernels(monkeypatch):
    """A run without interactions before and after a real run on one
    chain: each run's post-core kernels are its own, so each equals its
    run on a cleared memo."""
    plan = plan_for(3, [1.0, -2.0])

    def run(interactions):
        with monkeypatch.context() as patch:
            if not interactions:
                switch_off_interactions(patch)
            return protocol_bits(run_full_protocol(plan))

    grape._stage_kernels.cache_clear()
    runs = [run(False), run(True), run(False), run(True)]
    assert memo_counts() == (4, 4)
    for interactions in (False, True):
        grape._stage_kernels.cache_clear()
        fresh = run(interactions)
        assert runs[interactions] == runs[2 + interactions] == fresh
    assert runs[0][2] != runs[1][2]


def test_memoised_kernels_are_read_only(monkeypatch):
    """Both runs are served the same kernels, and writing into any array
    they hold raises."""
    memo, served = grape._stage_kernels, []

    def serving_memo(*key):
        served.append(memo(*key))
        return served[-1]

    serving_memo.__wrapped__ = memo.__wrapped__
    monkeypatch.setattr(protocol, "_stage_kernels", serving_memo)
    plan = plan_for(3, [1.0, -2.0])
    memo.cache_clear()
    run_full_protocol(plan)
    run_full_protocol(plan)
    assert len(served) == 4 and all(a is b for a, b in zip(served[:2], served[2:]))
    for kernels in served[:2]:
        for idx, kernel, _ in kernels:
            for array in (idx, kernel._w, kernel._v, kernel._hz):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


def test_plan_evaluates_its_interactions_once(monkeypatch):
    """The interactions are the same in every stage: the ``drift_terms``
    memo evaluates them once per chain, on first use, so a patch made
    after the plan is built still applies, and keeps them for every later
    stage and run."""
    calls = []
    original = chain._drift_terms

    def counting_drift_terms(*args):
        calls.append(args)
        return original(*args)

    plan = plan_for(3, core_amplitudes=[1.0, -2.0])
    chain._model_terms.cache_clear()
    monkeypatch.setattr(chain, "_drift_terms", counting_drift_terms)
    first = run_full_protocol(plan)
    assert len(calls) == 1
    again = run_full_protocol(plan)
    assert len(calls) == 1
    assert first.timeline == again.timeline


def test_stages_and_plans_compare_by_value():
    # equal copies are equal and hash alike, before and after a plan has
    # run; another core field or a displaced atom is unequal; no comparison
    # raises
    plan, same = plan_for(3, core_amplitudes=np.ones(3)), plan_for(3, core_amplitudes=np.ones(3))
    run_full_protocol(plan)
    assert plan == same and hash(plan) == hash(same)
    assert all(a == b and hash(a) == hash(b) for a, b in zip(plan.stages, same.stages))
    other_field = plan_for(3, core_amplitudes=[1.0, 2.0, 1.0])
    assert plan != other_field and plan.stages[2] != other_field.stages[2]
    assert plan.stages[0] == other_field.stages[0]
    displaced = plan.geometry.positions.copy()
    displaced[2, 2] += 1e-6
    assert plan != standard_plan(ChainGeometry(displaced), plan.stages[2].schedule)


def test_drives_given_as_lists_run_as_the_standard_plan():
    """A stage stores its drives as tuples, so a plan written with lists
    hashes, keys the post-core memo, and runs to the standard plan's bits."""
    plan = plan_for(3, core_amplitudes=[1.0, -2.0])
    listed = [ProtocolStage(s.label, s.schedule, [list(d) for d in s.drives]) for s in plan.stages]
    assert tuple(listed) == plan.stages and hash(tuple(listed)) == hash(plan.stages)
    grape._stage_kernels.cache_clear()
    fresh = protocol_bits(run_full_protocol(plan))
    again = protocol_bits(run_full_protocol(protocol.ProtocolPlan(tuple(listed), plan.geometry)))
    assert memo_counts() == (2, 2) and again == fresh


#: The checked-in schedules the benchmark runs, N=3..6.
SCHEDULES = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "schedules"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pulse_free_protocol_is_the_spin_path(n, monkeypatch):
    """With the interactions off in the four pulse stages only, every pulse
    is an exact single-atom rotation, so the standard plan, run stage by
    stage, ends on the clock levels with the spin path's closed-system
    population of the core schedule from |+>^N (0.998648, 0.991956,
    0.973115 and 0.929391 on the checked-in schedules): the oracle that
    ties the protocol to the spin path."""
    record = load_result(SCHEDULES / f"rydberg_n{n}.json")
    schedule = schedule_from_record(record)
    plan = standard_plan(ChainGeometry.regular(n), schedule)
    state = basis_state(["0"] * n, PROTOCOL_BASIS)
    for stage in plan.stages:
        with monkeypatch.context() as patch:
            if not stage.uses_core_schedule:
                switch_off_interactions(patch)
            state = run_stage(state, stage, plan)[-1]
    clock = abs(np.vdot(stage_references(n)["map-to-clock"], state)) ** 2
    spin_path = closed_system_trace(
        RydbergModel(plan.geometry), schedule, plus_product_state(n), complete_graph_state(n)
    )[-1]
    assert abs(clock - spin_path) <= 1e-12
    expected = {3: 0.998648, 4: 0.991956, 5: 0.973115, 6: 0.929391}
    assert spin_path == pytest.approx(expected[n], abs=5e-7)


@pytest.mark.parametrize("name", sorted(path.name for path in SCHEDULES.glob("*.json")))
def test_the_layout_walk_predicts_every_stage_of_a_run(name, monkeypatch):
    """Before any state is evolved, the walk gives each stage's input
    support (the all-zero row, then the rows the layout before it
    reaches), np.flatnonzero of the state the stage starts from, and the
    layout the run fills for it, the same object."""
    record = load_result(SCHEDULES / name)
    plan = standard_plan(ChainGeometry.regular(record["N"]), schedule_from_record(record))
    walked = protocol._stage_layouts([stage.drives for stage in plan.stages], plan.geometry)
    supports = [[0]] + [layout.reached for layout in walked[:-1]]
    inputs, filled = [], []
    original_evolve, original_fill = protocol._evolve, BlockPattern.fill

    def recording_evolve(state, *args):
        inputs.append(np.flatnonzero(state))
        return original_evolve(state, *args)

    def recording_fill(self, *args):
        filled.append(self)
        return original_fill(self, *args)

    monkeypatch.setattr(protocol, "_evolve", recording_evolve)
    monkeypatch.setattr(BlockPattern, "fill", recording_fill)
    grape._stage_kernels.cache_clear()  # so the post-core stages fill too
    run_full_protocol(plan)
    assert len(walked) == len(inputs) == len(filled) == len(plan.stages)
    for support, layout, given, fill in zip(supports, walked, inputs, filled):
        assert np.array_equal(support, given)
        assert layout is fill


def test_stage_beyond_the_trace_budget_is_refused_before_any_block(monkeypatch):
    # a 20000-slice core on six atoms would stack 20000 x 5^6 states, 4.66 GiB
    # of amplitudes: refused before any layout, fill or allocation
    monkeypatch.setattr(protocol, "block_pattern", None)
    plan = standard_plan(ChainGeometry.regular(6), ControlSchedule(0.233, np.ones(20000)))
    state = basis_state(["up"] * 6, PROTOCOL_BASIS)
    message = "20000 slice boundaries x 15625 basis states exceed the stage budget of 10000000"
    with pytest.raises(ValueError, match=message):
        run_stage(state, plan.stages[2], plan)


def test_full_protocol_builds_each_level_table_once():
    """The memoised site-level table: one N=6 run builds no table twice, and
    the (5^6, 6) table is among those it built."""
    site_levels.cache_clear()
    run_full_protocol(standard_plan(ChainGeometry.regular(6), ControlSchedule(0.233, np.ones(4))))
    built = site_levels.cache_info()
    assert built.misses == built.currsize < built.hits
    assert site_levels(6, PROTOCOL_BASIS.dim).shape == (5**6, 6)
    assert site_levels.cache_info().misses == built.misses


def test_core_stage_refuses_a_background_that_breaks_the_field_symmetry(monkeypatch):
    n = 2
    plan = standard_plan(
        ChainGeometry.regular(n), ControlSchedule(t_total=0.1, amplitudes=np.ones(3))
    )
    # sigma_x on site 0, as a term of the background
    transverse = ((0, "up", "down"),)
    assert np.array_equal(
        hermitian_sum([transverse], [1.0], np.zeros(PROTOCOL_BASIS.dim**n), n, PROTOCOL_BASIS),
        embed_local_operator(spin_half_operator(SIGMA_X, PROTOCOL_BASIS), 0, n, PROTOCOL_BASIS),
    )
    original = grape.drift_terms

    def background_with_transverse_field(model, basis):
        moves, coeffs, shifts = original(model, basis)
        return (*moves, transverse), np.append(coeffs, 1.0), shifts

    monkeypatch.setattr(grape, "drift_terms", background_with_transverse_field)
    state = basis_ket_graph_state(n, *REFERENCE_ROLES["core"])
    with pytest.raises(ValueError, match="commute"):
        run_stage(state, plan.stages[2], plan)
