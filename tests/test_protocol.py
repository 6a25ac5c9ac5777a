"""Stage-by-stage protocol checks on the 5-level basis."""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

import spingraph.protocol as protocol
from spingraph.chain import (
    ChainGeometry,
    RydbergModel,
    assemble_system,
    build_control_hz,
    rydberg_background,
)
from spingraph.grape import ControlSchedule
from spingraph.operators import (
    PROTOCOL_BASIS,
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
    TRACE_POINTS_PER_STAGE,
    ProtocolPlan,
    ProtocolStage,
    mapped_graph_state,
    run_full_protocol,
    run_stage,
    standard_plan,
    write_timeline_csv,
)
from spingraph.targets import complete_graph_state

from kron_reference import SIGMA_X, kron_drive_hamiltonian, spin_half_operator

TWO_PI = 2.0 * np.pi


def drive_only_plan(n_sites=2, core_amplitudes=(0.0,), core_t=0.1):
    """Standard stage sequence with interactions switched off everywhere."""
    plan = standard_plan(
        ChainGeometry.regular(n_sites),
        ControlSchedule(t_total=core_t, amplitudes=np.asarray(core_amplitudes, float)),
    )
    stages = tuple(
        ProtocolStage(
            label=s.label,
            duration=s.duration,
            drives=s.drives,
            uses_core_schedule=s.uses_core_schedule,
            background=False,
        )
        for s in plan.stages
    )
    return ProtocolPlan(
        stages=stages, geometry=plan.geometry, core_schedule=plan.core_schedule
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
    assert plan.total_duration == pytest.approx(0.125 + 1.0 / 280.0 + 0.141 + 0.0025 + 0.125)
    assert plan.total_duration == pytest.approx(0.3970714285714286)
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


def test_plan_refuses_a_core_stage_that_outlasts_its_schedule():
    # the core evolution runs the schedule's T whatever the stage says, so a
    # longer stage would shift every later end time and timeline point
    plan = standard_plan(
        ChainGeometry.regular(3), ControlSchedule(t_total=0.141, amplitudes=np.zeros(10))
    )
    stages = list(plan.stages)
    stages[2] = replace(stages[2], duration=1.0)
    with pytest.raises(ValueError, match=r"core stage 'core' lasts 1.0, but the core schedule lasts T = 0.141"):
        replace(plan, stages=tuple(stages))
    # drive stages keep their own durations
    stages = list(plan.stages)
    stages[0] = replace(stages[0], duration=1.0)
    assert replace(plan, stages=tuple(stages)).total_duration == pytest.approx(
        plan.total_duration + 1.0 - np.pi / OMEGA_TWO_PHOTON
    )


def test_pi_pulse_transfers_zero_to_up():
    plan = drive_only_plan()
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    out = run_stage(state, plan.stages[0], plan)
    target = product_state(basis_state(["up"], PROTOCOL_BASIS), 2)
    assert abs(np.vdot(target, out)) ** 2 == pytest.approx(1.0, abs=1e-12)
    # each atom picks up -i from the half rotation
    assert np.vdot(target, out) == pytest.approx(-1.0, abs=1e-12)


def test_half_pulse_phase_convention():
    plan = drive_only_plan()
    state = product_state(basis_state(["up"], PROTOCOL_BASIS), 2)
    out = run_stage(state, plan.stages[1], plan)
    single = np.zeros(PROTOCOL_BASIS.dim, dtype=complex)
    single[PROTOCOL_BASIS.index("up")] = 1.0 / np.sqrt(2.0)
    single[PROTOCOL_BASIS.index("down")] = -1.0j / np.sqrt(2.0)
    np.testing.assert_allclose(out, product_state(single, 2), atol=1e-12)


def test_decouple_pulse_empties_down_level():
    plan = drive_only_plan()
    single = np.zeros(PROTOCOL_BASIS.dim, dtype=complex)
    single[PROTOCOL_BASIS.index("up")] = 1.0 / np.sqrt(2.0)
    single[PROTOCOL_BASIS.index("down")] = -1.0j / np.sqrt(2.0)
    state = product_state(single, 2)
    out = run_stage(state, plan.stages[3], plan)
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
            local = evolve_unitary(hz, plan.core_schedule.field_area, local)
        else:
            local = evolve_unitary(kron_drive_hamiltonian(stage.drives, 1), stage.duration, local)
        out.append(local)
    return out


def test_drive_only_protocol_hits_stage_references():
    # without interactions the first two stages are perfect single-atom
    # rotations, and decoupling plus mapping stay complete transfers; every
    # stage is a product of exact single-atom evolutions
    for n in (2, 5, 6):
        plan = drive_only_plan(n, core_amplitudes=np.linspace(-3.0, 7.0, 5), core_t=0.05)
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
            state = run_stage(state, stage, plan)
            np.testing.assert_allclose(state, product_state(local, n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.final_state, state, rtol=0, atol=1e-12)


def test_stage_validation():
    with pytest.raises(ValueError):
        ProtocolStage("bad", -0.1)
    plan = drive_only_plan()
    empty = ProtocolStage("empty", 0.1, (), background=False)
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    with pytest.raises(ValueError):
        run_stage(state, empty, plan)
    with pytest.raises(ValueError):
        run_stage(2.0 * state, plan.stages[0], plan)
    nan_rate = ProtocolStage("nan", 0.1, (("up", "0", float("nan")),))
    with pytest.raises(ValueError, match="NaN"):
        run_stage(state, nan_rate, plan)


def test_zero_duration_stage_is_identity():
    plan = drive_only_plan()
    stage = ProtocolStage("noop", 0.0, (("up", "0", 1.0),), background=False)
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    out = run_stage(state, stage, plan)
    np.testing.assert_allclose(out, state, atol=1e-14)
    hooked = []
    out = run_stage(state, stage, plan, trace_hook=lambda t, s: hooked.append((t, s)))
    assert [t for t, _ in hooked] == [0.0] * TRACE_POINTS_PER_STAGE
    for _, s in hooked:
        np.testing.assert_allclose(s, state, atol=1e-14)
    np.testing.assert_allclose(out, state, atol=1e-14)


def test_dimension_budget():
    # six atoms run (see the block tests); seven exceed the state budget 5^6
    # and are refused at once, before any stage
    plan = standard_plan(
        ChainGeometry.regular(7),
        ControlSchedule(t_total=0.1, amplitudes=np.zeros(2)),
    )
    start = time.perf_counter()
    with pytest.raises(ValueError, match="5\\^7 exceeds the supported budget 15625"):
        run_full_protocol(plan)
    assert time.perf_counter() - start < 1.0


def test_mapped_graph_state_amplitudes():
    n = 3
    cgs = complete_graph_state(n)
    mapped = mapped_graph_state(n, "up", "down", factor_per_down=-1.0j)
    assert abs(np.linalg.norm(mapped) - 1.0) < 1e-12
    for code in range(2**n):
        bits = [(code >> (n - 1 - site)) & 1 for site in range(n)]
        labels = ["down" if b else "up" for b in bits]
        expected = cgs[code] * (-1.0j) ** sum(bits)
        assert mapped[np.nonzero(basis_state(labels, PROTOCOL_BASIS))[0][0]] == pytest.approx(
            expected
        )


def test_mapped_graph_state_role_relabeling():
    mapped = mapped_graph_state(2, "0", "1", factor_per_down=1.0, factor_per_up=-1.0)
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drive_hamiltonian_matches_kron_reference(n, monkeypatch):
    """The blocks run_stage hands to the propagator, interactions off: each
    equals the kron reference on its indices, and the reference couples no
    reached index to an unreached one. A state on every basis index reaches
    every block, so there the blocks rebuild the whole reference."""
    blocks, seen = [], []
    original_blocks = protocol.hermitian_blocks

    def recording_blocks(*args):
        out = original_blocks(*args)
        blocks.extend(out)
        return out

    class RecordingPropagator:
        def __init__(self, h, hz_diag):
            seen.append(h)

        def states(self, psi, t, area):
            return np.zeros((np.size(t), len(psi)), dtype=complex)

    monkeypatch.setattr(protocol, "hermitian_blocks", recording_blocks)
    monkeypatch.setattr(protocol, "ClosedFormPropagator", RecordingPropagator)
    plan = drive_only_plan(n, core_amplitudes=np.zeros(2))
    dim = PROTOCOL_BASIS.dim**n
    starts = (basis_state(["0"] * n, PROTOCOL_BASIS), np.full(dim, dim**-0.5, dtype=complex))
    for state in starts:
        for stage in plan.stages:
            run_stage(state, stage, plan)
            reference = kron_drive_hamiltonian(stage.drives, n)
            got = np.zeros_like(reference)
            for (idx, block), h in zip(blocks, seen, strict=True):
                assert h is block
                got[np.ix_(idx, idx)] = block
            reached = np.concatenate([idx for idx, _ in blocks])
            assert len(np.unique(reached)) == len(reached)
            assert np.all(np.isin(np.flatnonzero(state), reached))
            assert np.array_equal(got[reached], reference[reached])
            if len(reached) == dim:
                assert np.array_equal(got, reference)
            blocks.clear()
            seen.clear()


def basis_ket_graph_state(n, level_for_up, level_for_down, factor_per_down, factor_per_up):
    """Reference: the graph state as an explicit sum of relabeled basis kets."""
    out = np.zeros(PROTOCOL_BASIS.dim**n, dtype=complex)
    for code in range(2**n):
        bits = [(code >> (n - 1 - site)) & 1 for site in range(n)]
        m_up = bits.count(0)
        amp = (-1.0) ** (m_up * (m_up - 1) // 2) / np.sqrt(2.0**n)
        for b in bits:
            amp *= factor_per_down if b else factor_per_up
        labels = [level_for_down if b else level_for_up for b in bits]
        out += amp * basis_state(labels, PROTOCOL_BASIS)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "roles",
    [("up", "down", -1.0j, 1.0), ("up", "r", -1.0, 1.0), ("0", "1", 1.0, -1.0)],
)
def test_mapped_graph_state_matches_basis_ket_sum(n, roles):
    up, down, f_down, f_up = roles
    assert np.array_equal(
        mapped_graph_state(n, up, down, factor_per_down=f_down, factor_per_up=f_up),
        basis_ket_graph_state(n, up, down, f_down, f_up),
    )


def stepwise_stage(state, stage, plan):
    """Reference: the per-step product of exp(-i h dt), TRACE_POINTS_PER_STAGE
    equal steps per drive stage and one evolve_unitary step per core slice.
    Returns the (t_local, state) pairs a trace hook sees, in order."""
    basis = PROTOCOL_BASIS
    h_sys = assemble_system(RydbergModel(plan.geometry), basis) if stage.background else 0.0
    points = []
    if stage.uses_core_schedule:
        hz = build_control_hz(plan.n_sites, basis)
        schedule = plan.core_schedule
        for k in range(schedule.n_slices):
            state = evolve_unitary(h_sys + schedule.amplitudes[k] * hz, schedule.dt, state)
            points.append(((k + 1) * schedule.dt, state))
        return points
    h = h_sys + kron_drive_hamiltonian(stage.drives, plan.n_sites)
    dt = stage.duration / TRACE_POINTS_PER_STAGE
    # evolve_unitary's formula, with h diagonalized once for all its steps
    w, v = np.linalg.eigh(h)
    for step in range(TRACE_POINTS_PER_STAGE):
        state = v @ (np.exp(-1j * w * dt) * (v.conj().T @ state))
        points.append(((step + 1) * dt, state))
    return points


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("interactions", [True, False])
def test_run_stage_matches_stepwise_product(n, interactions):
    core = ControlSchedule(t_total=0.15, amplitudes=np.array([-9.8, 3.1, -12.4]))
    plan = (
        standard_plan(ChainGeometry.regular(n), core)
        if interactions
        else drive_only_plan(n, core.amplitudes, core.t_total)
    )
    state = basis_state(["0"] * n, PROTOCOL_BASIS)
    for stage in plan.stages:
        hooked = []
        out = run_stage(state, stage, plan, trace_hook=lambda t, s: hooked.append((t, s)))
        reference = stepwise_stage(state, stage, plan)
        assert [t for t, _ in hooked] == [t for t, _ in reference]
        for (_, got), (_, want) in zip(hooked, reference):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, reference[-1][1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            run_stage(state, stage, plan), reference[-1][1], rtol=0, atol=1e-12
        )
        state = reference[-1][1]


def test_unhooked_stage_evaluates_only_its_end_state(monkeypatch):
    """Without a trace hook every block is evaluated at one (t, A), the last
    point the hooked run traces, and both runs return the same state."""
    core = ControlSchedule(t_total=0.15, amplitudes=np.array([-9.8, 3.1, -12.4]))
    plan = standard_plan(ChainGeometry.regular(3), core)
    sizes = []
    original_states = protocol.ClosedFormPropagator.states

    def counting_states(self, psi, t, area):
        sizes.append(np.size(t))
        return original_states(self, psi, t, area)

    monkeypatch.setattr(protocol.ClosedFormPropagator, "states", counting_states)
    state = basis_state(["0"] * 3, PROTOCOL_BASIS)
    for stage in plan.stages:
        sizes.clear()
        out = run_stage(state, stage, plan)
        assert sizes and set(sizes) == {1}
        sizes.clear()
        hooked = run_stage(state, stage, plan, trace_hook=lambda t, s: None)
        traced = core.n_slices if stage.uses_core_schedule else TRACE_POINTS_PER_STAGE
        assert set(sizes) == {traced}
        np.testing.assert_allclose(out, hooked, rtol=0, atol=1e-14)
        state = hooked


def test_full_protocol_diagonalizes_once_per_stage(monkeypatch, core_result):
    """One eigh per reached block of each stage, never a d^N x d^N matrix;
    pins the largest block of every stage at N=3 and N=4."""
    calls, blocks = [], []
    original_eigh, original_blocks, original_stage = (
        np.linalg.eigh, protocol.hermitian_blocks, protocol.run_stage
    )

    def counting_eigh(a, *args, **kwargs):
        calls[-1].append(a.shape[0])
        return original_eigh(a, *args, **kwargs)

    def recording_blocks(*args):
        out = original_blocks(*args)
        blocks.append(sorted(len(idx) for idx, _ in out))
        return out

    def marking_stage(*args, **kwargs):
        calls.append([])
        return original_stage(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(protocol, "hermitian_blocks", recording_blocks)
    monkeypatch.setattr(protocol, "run_stage", marking_stage)
    largest = {3: [8, 8, 3, 12, 12], 4: [16, 16, 6, 32, 32]}
    for n, schedule in ((3, core_result.schedule), (4, ControlSchedule(0.172, np.ones(4)))):
        calls.clear()
        blocks.clear()
        plan = standard_plan(ChainGeometry.regular(n), schedule)
        run_full_protocol(plan)
        assert len(calls) == len(blocks) == len(plan.stages)
        assert [sorted(sizes) for sizes in calls] == blocks
        assert [max(sizes) for sizes in calls] == largest[n]
        # the last stage reaches every basis index, each in one block
        assert sum(blocks[-1]) == PROTOCOL_BASIS.dim**n


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
    transverse = (1.0, {0: ("up", "down")})
    assert np.array_equal(
        hermitian_sum([transverse], np.zeros(PROTOCOL_BASIS.dim**n), n, PROTOCOL_BASIS),
        embed_local_operator(spin_half_operator(SIGMA_X, PROTOCOL_BASIS), 0, n, PROTOCOL_BASIS),
    )

    def background_with_transverse_field(geometry, basis):
        terms, shifts = rydberg_background(geometry, basis)
        return [*terms, transverse], shifts

    monkeypatch.setattr(protocol, "rydberg_background", background_with_transverse_field)
    state = mapped_graph_state(n, "up", "down", factor_per_down=-1.0j)
    with pytest.raises(ValueError, match="commute"):
        run_stage(state, plan.stages[2], plan)
