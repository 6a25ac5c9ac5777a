"""Stage-by-stage protocol checks on the 5-level basis."""

import csv

import numpy as np
import pytest

from spingraph.chain import ChainGeometry
from spingraph.grape import ControlSchedule
from spingraph.operators import (
    PROTOCOL_BASIS,
    basis_state,
    embed_local_operator,
    product_state,
)
from spingraph.protocol import (
    _drive_hamiltonian,
    OMEGA_MICROWAVE_A,
    OMEGA_MICROWAVE_B,
    OMEGA_TWO_PHOTON,
    ProtocolPlan,
    ProtocolStage,
    mapped_graph_state,
    run_full_protocol,
    run_stage,
    standard_plan,
    write_timeline_csv,
)
from spingraph.targets import complete_graph_state

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
        stages=stages,
        n_sites=plan.n_sites,
        geometry=plan.geometry,
        core_schedule=plan.core_schedule,
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


def test_drive_only_protocol_hits_stage_references():
    # without interactions the first two stages are perfect single-atom
    # rotations, and decoupling plus mapping stay complete transfers
    plan = drive_only_plan(core_amplitudes=np.zeros(5), core_t=0.05)
    result = run_full_protocol(plan)
    by_label = {r.label: r.reference_population for r in result.stage_reports}
    assert by_label["prepare-up"] is None
    assert by_label["half-rotate"] == pytest.approx(1.0, abs=1e-10)
    assert abs(np.linalg.norm(result.final_state) - 1.0) < 1e-10
    assert level_population(result.final_state, "up", 2) < 1e-12
    assert level_population(result.final_state, "down", 2) < 1e-12
    assert level_population(result.final_state, "r", 2) < 1e-12


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


def test_zero_duration_stage_is_identity():
    plan = drive_only_plan()
    stage = ProtocolStage("noop", 0.0, (("up", "0", 1.0, 0.0),), background=False)
    state = product_state(basis_state(["0"], PROTOCOL_BASIS), 2)
    out = run_stage(state, stage, plan)
    np.testing.assert_allclose(out, state, atol=1e-14)


def test_dimension_budget():
    plan = standard_plan(
        ChainGeometry.regular(6),
        ControlSchedule(t_total=0.1, amplitudes=np.zeros(2)),
    )
    with pytest.raises(ValueError):
        run_full_protocol(plan)


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


def kron_drive_hamiltonian(drives, n_sites):
    """Reference: sum over sites of the embedded local drive operator."""
    basis = PROTOCOL_BASIS
    h = np.zeros((basis.dim**n_sites,) * 2, dtype=complex)
    for name_a, name_b, rate, phase in drives:
        local = np.zeros((basis.dim, basis.dim), dtype=complex)
        local[basis.index(name_a), basis.index(name_b)] = 0.5 * rate * np.exp(1j * phase)
        local += local.conj().T
        for site in range(n_sites):
            h += embed_local_operator(local, site, n_sites, basis)
    return h


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drive_hamiltonian_matches_kron_reference(n):
    plan = standard_plan(
        ChainGeometry.regular(n), ControlSchedule(t_total=0.1, amplitudes=np.zeros(2))
    )
    for stage in plan.stages:
        for drives in (stage.drives, tuple((a, b, r, 0.7) for a, b, r, _ in stage.drives)):
            assert np.array_equal(
                _drive_hamiltonian(drives, n, PROTOCOL_BASIS),
                kron_drive_hamiltonian(drives, n),
            )


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
