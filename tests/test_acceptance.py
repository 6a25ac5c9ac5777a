"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single summary line (visible with ``pytest -s``) and
then asserts its tolerance. Criterion 8 is split: the peak positions of
the duration scan hold, but the third window's best population sits
below the 0.99 bar at every grid point (see README for the analysis),
so that half fails by design rather than being weakened.

Criterion 4 takes its open-system populations from the exact no-jump
trace, the path the CLI uses; the RK4 Lindblad integrator is pinned by the
property suite here and by its oracles in test_dynamics.
"""

import numpy as np
import pytest

from spingraph.analytic import (
    analytic_state,
    constant_field_params,
    propagated_population,
)
from spingraph.chain import (
    ChainGeometry,
    IdealModel,
    RydbergModel,
    assemble_system,
    build_control_hz,
)
from spingraph.dynamics import (
    NoiseSpec,
    closed_system_trace,
    ensemble_average,
    evolve_master,
    open_system_trace,
)
from spingraph.grape import (
    ControlSchedule,
    GuessSpec,
    SpinSectors,
    scan_duration,
    schedule_from_record,
    schedule_to_record,
    spin_overlaps,
)
from spingraph.operators import EMISSION_BASIS, SPIN_BASIS, evolve_unitary
from spingraph.protocol import run_full_protocol, standard_plan
from spingraph.targets import complete_graph_state, cz_graph_state, plus_product_state
from conftest import IDEAL_CASES, RYDBERG_CASES, rydberg_config
from kron_reference import DEFAULT_JUMPS, constant_field_hamiltonian, embed_spin_state

TWO_PI = 2.0 * np.pi

IDEAL_EXPECTED = {3: 1.0, 4: 0.9931, 5: 0.9710, 6: 0.9346}
RYDBERG_EXPECTED = {3: 0.9989, 4: 0.9920, 5: 0.9728, 6: 0.9294}
DISSIPATION_EXPECTED = {3: 0.0006, 4: 0.0009, 5: 0.0010, 6: 0.0017}

pytestmark = pytest.mark.acceptance


def report(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.mark.parametrize("guess_fixture", ["ideal_gaussian_results", "ideal_random_results"])
def test_criterion_1_ideal_table(request, guess_fixture):
    """Ideal-chain populations from both guess families, tolerance 0.005."""
    results = request.getfixturevalue(guess_fixture)
    values = {n: results[n].final_population for n, _ in IDEAL_CASES}
    ok = all(abs(values[n] - IDEAL_EXPECTED[n]) <= 0.005 for n in values)
    label = "gaussian" if "gaussian" in guess_fixture else "random"
    report(
        "1",
        ok,
        f"{label} guess populations "
        + " ".join(f"N={n}:{values[n]:.6f}" for n in sorted(values)),
    )
    for n, value in values.items():
        assert value == pytest.approx(IDEAL_EXPECTED[n], abs=0.005)


def test_criterion_2_rydberg_table(rydberg_results):
    """Dipolar-chain populations at the documented durations, tolerance 0.01."""
    values = {n: rydberg_results[n].final_population for n, _ in RYDBERG_CASES}
    ok = all(abs(values[n] - RYDBERG_EXPECTED[n]) <= 0.01 for n in values)
    report(
        "2",
        ok,
        "populations " + " ".join(f"N={n}:{values[n]:.6f}" for n in sorted(values)),
    )
    for n, value in values.items():
        assert value == pytest.approx(RYDBERG_EXPECTED[n], abs=0.01)


def test_criterion_3_analytic_oracle():
    """Constant-field family points reach the target through the kernel;
    closed forms match the dense expm at random parameters."""
    family_pops = {}
    for c1, c2 in ((0, 0), (0, 1), (1, 1)):
        sol = constant_field_params(c1, c2, 1.0)
        family_pops[(c1, c2)] = propagated_population(1.0, sol.b, sol.t_star)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        j = rng.uniform(0.5, 2.0)
        b = rng.uniform(-10.0, 10.0)
        t = rng.uniform(0.0, 5.0)
        exact = analytic_state(j, b, t)
        prop = evolve_unitary(constant_field_hamiltonian(j, b), t, plus_product_state(3))
        worst = max(worst, float(np.max(np.abs(exact - prop))))
    ok = all(p > 1.0 - 1e-6 for p in family_pops.values()) and worst < 1e-8
    report(
        "3",
        ok,
        "family populations "
        + " ".join(f"{k}:{p:.9f}" for k, p in family_pops.items())
        + f", worst amplitude mismatch {worst:.2e}",
    )
    for pop in family_pops.values():
        assert pop > 1.0 - 1e-6
    assert worst < 1e-8


def test_criterion_4_dissipation_deltas(rydberg_results):
    """Spontaneous-emission cost of each chain run, tolerance 0.0010."""
    deltas = {}
    for n, _ in RYDBERG_CASES:
        schedule = rydberg_results[n].schedule
        model = RydbergModel(ChainGeometry.regular(n))
        closed, opened = open_system_trace(
            model, schedule, DEFAULT_JUMPS, plus_product_state(n), complete_graph_state(n)
        )
        deltas[n] = closed[-1] - opened[-1]
    ok = all(abs(deltas[n] - DISSIPATION_EXPECTED[n]) <= 0.0010 for n in deltas)
    report(
        "4",
        ok,
        "deltas " + " ".join(f"N={n}:{deltas[n]:.6f}" for n in sorted(deltas)),
    )
    for n, delta in deltas.items():
        assert delta == pytest.approx(DISSIPATION_EXPECTED[n], abs=0.0010)


def test_criterion_5_deterministic_offset_sweep(rydberg_results):
    """Population stays above 0.9 for distance offsets up to 300 nm."""
    offsets_nm = np.arange(-300.0, 301.0, 50.0)
    minima = {}
    for n, _ in RYDBERG_CASES:
        schedule = rydberg_results[n].schedule
        psi0, target = plus_product_state(n), complete_graph_state(n)
        pops = []
        for offset in offsets_nm:
            geometry = ChainGeometry.regular(n).with_delta_r(offset / 1000.0)
            pops.append(
                closed_system_trace(RydbergModel(geometry), schedule, psi0, target)[-1]
            )
        minima[n] = min(pops)
    ok = all(m > 0.9 for m in minima.values())
    report(
        "5",
        ok,
        "sweep minima " + " ".join(f"N={n}:{minima[n]:.4f}" for n in sorted(minima)),
    )
    for minimum in minima.values():
        assert minimum > 0.9


def test_criterion_6_position_noise_ensembles(rydberg_results):
    """50-sample position-noise means for N=4 and N=6, tolerance 0.02."""
    spec = NoiseSpec(position_sigma=(193.5, 193.5, 1242.9), samples=50, base_seed=0)
    expected = {4: 0.9728, 6: 0.9187}
    means = {}
    for n in (4, 6):
        result = ensemble_average(
            RydbergModel(ChainGeometry.regular(n)),
            rydberg_results[n].schedule,
            spec,
            plus_product_state(n),
            complete_graph_state(n),
        )
        means[n] = result.mean_final
    ok = all(abs(means[n] - expected[n]) <= 0.02 for n in means)
    report(
        "6",
        ok,
        " ".join(f"N={n}: mean {means[n]:.4f} (expected {expected[n]})" for n in sorted(means)),
    )
    for n, mean in means.items():
        assert mean == pytest.approx(expected[n], abs=0.02)


def test_criterion_7_field_noise_ensembles(rydberg_fine_results):
    """50-sample per-slice field noise shifts the mean by less than 0.01.

    Runs on the 100-slice schedules: the per-slice noise model's variance
    scales inversely with the slice count, so the band encodes the fine
    time resolution."""
    spec = NoiseSpec(field_sigma=TWO_PI * 0.5, samples=50, base_seed=0)
    deltas = {}
    for n, _ in RYDBERG_CASES:
        schedule = rydberg_fine_results[n].schedule
        model = RydbergModel(ChainGeometry.regular(n))
        psi0, target = plus_product_state(n), complete_graph_state(n)
        noiseless = closed_system_trace(model, schedule, psi0, target)[-1]
        result = ensemble_average(model, schedule, spec, psi0, target)
        deltas[n] = abs(result.mean_final - noiseless)
    ok = all(d < 0.01 for d in deltas.values())
    report(
        "7",
        ok,
        "mean shifts " + " ".join(f"N={n}:{deltas[n]:.4f}" for n in sorted(deltas)),
    )
    for delta in deltas.values():
        assert delta < 0.01


@pytest.fixture(scope="module")
def duration_scan():
    config = rydberg_config(3, 0.75, GuessSpec(kind="gaussian", b0=TWO_PI))
    return scan_duration(config, 0.05, 0.75, 71)


def test_criterion_8_scan_peak_positions(duration_scan):
    """The three dominant maxima of the duration scan sit at the documented
    durations, within one grid step."""
    grid_step = (0.75 - 0.05) / 70
    expected_times = (0.141, 0.42, 0.696)
    top = duration_scan.maxima[:3]
    ok = len(duration_scan.maxima) >= 3 and all(
        abs(t - t_exp) <= grid_step + 1e-12 for (t, _), t_exp in zip(top, expected_times)
    )
    report(
        "8 (positions)",
        ok,
        f"{len(duration_scan.maxima)} maxima, top three at "
        + " ".join(f"{t:.3f}" for t, _ in top),
    )
    assert len(duration_scan.maxima) >= 3
    for (t, _), t_exp in zip(top, expected_times):
        assert abs(t - t_exp) <= grid_step + 1e-12


def test_criterion_8_scan_peak_heights(duration_scan):
    """Population at each of the three dominant maxima should reach 0.99.

    The third revival does not: its best achievable population in the
    0.65-0.75 us window stays near 0.975 for this chain (README,
    "Known limits"). The check is kept at the stated bar and fails
    honestly rather than being loosened."""
    top = duration_scan.maxima[:3]
    ok = all(p >= 0.99 for _, p in top)
    report(
        "8 (heights)",
        ok,
        "top-three populations " + " ".join(f"{p:.4f}" for _, p in top),
    )
    for _, population in top:
        assert population >= 0.99


def test_criterion_9_full_protocol(core_result):
    """Staged N=3 run: final clock-state population and stage references."""
    plan = standard_plan(ChainGeometry.regular(3), core_result.schedule)
    result = run_full_protocol(plan)
    pops = {r.label: r.reference_population for r in result.stage_reports}
    final = pops["map-to-clock"]
    ok = (
        abs(result.total_duration - 0.3971) <= 1e-4
        and abs(final - 0.9916) <= 0.005
        and all(pops[k] >= 0.99 for k in ("half-rotate", "core", "decouple"))
    )
    report(
        "9",
        ok,
        f"t_tot {result.total_duration:.6f} us, final {final:.6f}, stages "
        + " ".join(f"{k}:{pops[k]:.4f}" for k in ("half-rotate", "core", "decouple")),
    )
    assert result.total_duration == pytest.approx(0.3971, abs=1e-4)
    assert final == pytest.approx(0.9916, abs=0.005)
    for key in ("half-rotate", "core", "decouple"):
        assert pops[key] >= 0.99


def _check_gradient_against_finite_differences() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 5))
        if case % 2 == 0:
            model = IdealModel(n, coupling=float(rng.uniform(0.5, 2.0)))
            t_total = float(rng.uniform(0.5, 3.0))
            scale = 2.0
        else:
            model = RydbergModel(ChainGeometry.regular(n))
            t_total = float(rng.uniform(0.05, 0.25))
            scale = 12.0
        n_slices = int(rng.integers(3, 9))
        schedule = ControlSchedule(
            t_total=t_total, amplitudes=rng.uniform(-scale, scale, n_slices)
        )
        psi0, target = plus_product_state(n), complete_graph_state(n)
        # the optimizer's slope, from the overlap and its area derivative
        # summed over the sectors; every slice moves the area by dt per unit
        sectors = SpinSectors(model, psi0)
        returns = sectors.returns(target, t_total)
        overlap, d_overlap = spin_overlaps(
            sectors.hz, np.stack([returns, -1j * sectors.hz * returns]), schedule.field_area
        )
        slope = 2.0 * np.real(np.conj(overlap) * d_overlap)
        grad = schedule.dt * slope
        eps = 1e-6
        for k in range(n_slices):
            up = schedule.amplitudes.copy()
            up[k] += eps
            down = schedule.amplitudes.copy()
            down[k] -= eps
            phi_up, phi_down = (
                closed_system_trace(model, ControlSchedule(t_total, amps), psi0, target)[-1]
                for amps in (up, down)
            )
            fd = (phi_up - phi_down) / (2.0 * eps)
            denom = max(abs(fd), abs(grad), 1e-3)
            worst = max(worst, abs(fd - grad) / denom)
    return worst < 1e-6, f"gradient worst rel err {worst:.2e}"


def _check_commutators() -> tuple[bool, str]:
    worst = 0.0
    for n in range(2, 8):
        for model in (IdealModel(n), RydbergModel(ChainGeometry.regular(n))):
            h0 = assemble_system(model, SPIN_BASIS)
            hz = build_control_hz(n, SPIN_BASIS)
            worst = max(worst, float(np.max(np.abs(h0 @ hz - hz @ h0))))
    return worst < 1e-12, f"commutator max {worst:.2e}"


def _check_reparameterization() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    worst = 0.0
    for model, t_total, scale in (
        (IdealModel(4), 2.808, 2.0),
        (RydbergModel(ChainGeometry.regular(3)), 0.141, 12.0),
    ):
        n = model.n_sites
        psi0, target = plus_product_state(n), complete_graph_state(n)
        for _ in range(5):
            amps = rng.uniform(-scale, scale, 10)
            base = ControlSchedule(t_total=t_total, amplitudes=amps)
            permuted = ControlSchedule(t_total=t_total, amplitudes=rng.permutation(amps))
            uniform = ControlSchedule(
                t_total=t_total, amplitudes=np.full(25, np.mean(amps))
            )
            phis = [
                closed_system_trace(model, s, psi0, target)[-1]
                for s in (base, permuted, uniform)
            ]
            worst = max(worst, max(phis) - min(phis))
    return worst < 1e-12, f"reparameterization spread {worst:.2e}"


def _check_target_form_relation() -> tuple[bool, str]:
    worst = 0.0
    for n in range(2, 8):
        literal = complete_graph_state(n)
        cz = cz_graph_state(n)
        if n % 2 == 1:
            phase = (-1.0) ** (n * (n - 1) // 2)
            worst = max(worst, float(np.max(np.abs(literal - phase * cz))))
        else:
            layer = np.exp(1j * np.pi * np.real(np.diag(build_control_hz(n))))
            ratio = literal / (layer * cz)
            worst = max(worst, float(np.max(np.abs(ratio - ratio[0]))))
            worst = max(worst, abs(abs(ratio[0]) - 1.0))
    return worst < 1e-12, f"target-form relation worst {worst:.2e}"


def _check_lindblad_checkpoints(schedule: ControlSchedule) -> tuple[bool, str]:
    model = RydbergModel(ChainGeometry.regular(3))
    psi0 = embed_spin_state(plus_product_state(3), 3, EMISSION_BASIS)
    rho0 = np.outer(psi0, psi0.conj())
    target = embed_spin_state(complete_graph_state(3), 3, EMISSION_BASIS)
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = 0.0
    for k in range(1, schedule.n_slices + 1):
        prefix = ControlSchedule(
            t_total=k * schedule.dt, amplitudes=schedule.amplitudes[:k]
        )
        rho = evolve_master(model, prefix, DEFAULT_JUMPS, rho0, target=target).rho_final
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_eig = max(worst_eig, max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))))
    # positivity is held to the integrator's documented step accuracy (1e-6)
    ok = worst_trace < 1e-8 and worst_herm < 1e-10 and worst_eig < 1e-6
    return ok, (
        f"lindblad trace {worst_trace:.1e} herm {worst_herm:.1e} negeig {worst_eig:.1e}"
    )


def _check_unitary_norm() -> tuple[bool, str]:
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(3):
        raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (raw + raw.conj().T) / 2.0
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        for t in (0.1, 1.0, 10.0):
            psi = evolve_unitary(h, t, psi)
            worst = max(worst, abs(np.linalg.norm(psi) - 1.0))
    return worst < 1e-10, f"unitary norm drift {worst:.2e}"


def _check_serialization(schedule: ControlSchedule) -> tuple[bool, str]:
    record = schedule_to_record(
        schedule, mode="rydberg", n_sites=3, seed=1, constants_version="x"
    )
    back = schedule_from_record(record)
    ok = back.t_total == schedule.t_total and np.array_equal(back.amplitudes, schedule.amplitudes)
    return ok, "schedule serialization bit-exact"


def test_criterion_10_property_suite(rydberg_results):
    """Structural properties: gradients, symmetries, state checks, IO."""
    schedule = rydberg_results[3].schedule
    checks = [
        _check_gradient_against_finite_differences(),
        _check_commutators(),
        _check_reparameterization(),
        _check_target_form_relation(),
        _check_lindblad_checkpoints(schedule),
        _check_unitary_norm(),
        _check_serialization(schedule),
    ]
    ok = all(flag for flag, _ in checks)
    report("10", ok, "; ".join(detail for _, detail in checks))
    for flag, detail in checks:
        assert flag, detail
