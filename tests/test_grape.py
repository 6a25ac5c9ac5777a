"""Guess fields, landscape gradient, ascent loop, duration scan, persistence.

The landscape and its slope come from the sector sum of ``SpinSectors``,
the one ``optimize`` runs; ``reference_optimize`` repeats the ascent with
fresh return amplitudes per step, and ``optimize`` must equal it bit for
bit. The sector kernel is checked against the dense kron-product drift
(``kron_reference``) by exponentiation, and the gradient against central
finite differences of the final population of
``dynamics.closed_system_trace``, slice by slice, against
dPhi/dB_k = dt dPhi/dA; frozen-scalar checks pin the guess-field formulas.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingraph import grape
from spingraph.chain import (
    ChainGeometry,
    IdealModel,
    RydbergModel,
    build_control_hz_diagonal,
    drift_terms,
)
from spingraph.dynamics import closed_system_trace, open_system_trace
from spingraph.grape import (
    ClosedFormPropagator,
    ControlSchedule,
    GrapeConfig,
    GrapeError,
    GrapeResult,
    GuessSpec,
    SpinSectors,
    gaussian_guess,
    load_result,
    make_guess,
    optimize,
    random_guess,
    reduce_field_winding,
    save_result,
    scan_duration,
    schedule_from_record,
    schedule_to_record,
    spin_overlaps,
)
from spingraph.operators import (
    MAX_TRACE_STACK,
    SPIN_BASIS,
    BlockPattern,
    embed_local_operator,
    evolve_unitary,
    hermitian_sum,
)
from spingraph.targets import (
    TargetForm,
    complete_graph_state,
    cz_graph_state,
    plus_product_state,
    target_state,
)

from conftest import IDEAL_CASES, RYDBERG_CASES, ideal_config, rydberg_config
from kron_reference import DEFAULT_JUMPS, SIGMA_X, kron_control_hz, kron_drift

TWO_PI = 2.0 * np.pi


def overlap_landscape(sectors, target, t, area):
    """Phi and dPhi/dA at (t, area) from return amplitudes computed for
    this call alone, with nothing carried over from an earlier call: an
    explicit row decomposes the drift afresh."""
    returns = sectors.returns(target, t, 0)
    stacked = np.stack([returns, -1j * sectors.hz * returns])
    overlap, d_overlap = stacked @ np.exp(-1j * (area * sectors.hz))
    return float(abs(overlap) ** 2), float(2.0 * np.real(np.conj(overlap) * d_overlap))


def landscape_at(model, schedule, psi0, target):
    """Phi and dPhi/dA at the schedule's (T, A), as ``optimize`` evaluates them."""
    return overlap_landscape(SpinSectors(model, psi0), target, schedule.t_total, schedule.field_area)


def population(model, target, t, area):
    """|<target| exp(-i H0 t) exp(-i A Hz) |+>^N|^2, broadcast over (t, A)."""
    sectors = SpinSectors(model, plus_product_state(model.n_sites))
    return np.abs(spin_overlaps(sectors.hz, sectors.returns(target, t), area)) ** 2


def reference_optimize(config):
    """The ascent of ``optimize``, line search and stop rule included, with
    every landscape value from ``overlap_landscape`` at its (T, A)."""
    n_sites = config.model.n_sites
    target = target_state(config.target, n_sites)
    sectors = SpinSectors(config.model, plus_product_state(n_sites))
    t = config.t_total
    guess = make_guess(config.guess, t)
    area = guess.field_area
    phi, slope = overlap_landscape(sectors, target, t, area)
    history = [phi]
    rate, flat, converged = grape.INITIAL_RATE, 0, slope == 0.0
    while not converged and len(history) <= grape.MAX_ITERATIONS:
        while rate >= grape.RATE_FLOOR:
            trial = area + rate * slope
            phi_trial, slope_trial = overlap_landscape(sectors, target, t, trial)
            if phi_trial >= phi:
                break
            rate *= grape.BACKTRACK_FACTOR
        else:
            converged = True
            break
        flat = flat + 1 if abs(phi_trial - phi) < grape.STOP_TOLERANCE else 0
        converged = flat >= grape.FLAT_ITERATIONS
        area, phi, slope = trial, phi_trial, slope_trial
        history.append(phi)
        rate *= grape.GROW_FACTOR
    schedule = reduce_field_winding(
        ControlSchedule(t, guess.amplitudes + (area - guess.field_area) / t)
    )
    final, _ = overlap_landscape(sectors, target, t, schedule.field_area)
    return GrapeResult(schedule, history, final, converged)


def final_population(model, schedule, psi0, target):
    """Phi from the slice-boundary trace: the last boundary's population."""
    return closed_system_trace(model, schedule, psi0, target)[-1]


def slice_finite_differences(model, schedule, psi0, target, step=1e-6):
    """Central differences of the final population in every slice amplitude."""
    out = []
    for k in range(schedule.n_slices):
        up = schedule.amplitudes.copy()
        dn = schedule.amplitudes.copy()
        up[k] += step
        dn[k] -= step
        phi_up = final_population(model, ControlSchedule(schedule.t_total, up), psi0, target)
        phi_dn = final_population(model, ControlSchedule(schedule.t_total, dn), psi0, target)
        out.append((phi_up - phi_dn) / (2.0 * step))
    return np.array(out)


def test_schedule_invariants():
    s = ControlSchedule(t_total=2.0, amplitudes=np.array([1.0, 2.0, 3.0, 4.0]))
    assert s.n_slices == 4
    assert s.dt == 0.5
    assert s.field_area == pytest.approx(5.0)
    assert np.array_equal(s.boundary_areas, [0.0, 0.5, 1.5, 3.0, 5.0])
    assert not s.boundary_areas.flags.writeable
    for t_total in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ControlSchedule(t_total=t_total, amplitudes=np.ones(3))
    with pytest.raises(ValueError):
        ControlSchedule(t_total=1.0, amplitudes=np.array([]))
    # the last two are finite amplitudes whose running area overflows, as a
    # noise sample's can; all are refused without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amplitudes in ([np.inf], [np.nan], [1e308, 1e308], [1e308, 1e308, -1e308]):
            with pytest.raises(ValueError, match="their field areas must be finite"):
                ControlSchedule(t_total=1.0, amplitudes=amplitudes)


def test_gaussian_guess_shape():
    s = gaussian_guess(101, 2.0, b0=1.0)
    # center slice sits at t_g = 0: peak value B0 / (sqrt(2 pi) sigma)
    assert s.amplitudes[50] == pytest.approx(3.989422804014327)
    # symmetric profile
    assert np.max(np.abs(s.amplitudes - s.amplitudes[::-1])) < 1e-14
    # edge value at t_g = -0.495 for n = 100, frozen scalar
    s100 = gaussian_guess(100, 2.0, b0=1.0)
    assert s100.amplitudes[0] == pytest.approx(1.906600903122814e-05, rel=1e-12)
    assert np.argmax(s100.amplitudes) in (49, 50)


def test_random_guess_range_and_determinism():
    a = random_guess(10, 1.0, b0=2.5, seed=42)
    b = random_guess(10, 1.0, b0=2.5, seed=42)
    c = random_guess(10, 1.0, b0=2.5, seed=43)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert np.all(a.amplitudes >= 0.0) and np.all(a.amplitudes <= 2.5)


def test_make_guess_slice_defaults():
    # documented defaults: 100 slices for Gaussian, 10 for random
    g = make_guess(GuessSpec(kind="gaussian", b0=1.0), t_total=1.0)
    assert g.n_slices == 100
    r = make_guess(GuessSpec(kind="random", b0=1.0, seed=1), t_total=1.0)
    assert r.n_slices == 10
    r25 = make_guess(GuessSpec(kind="random", b0=1.0, seed=1, n_slices=25), t_total=1.0)
    assert r25.n_slices == 25


@pytest.mark.parametrize("seed", range(20))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n_sites = int(rng.integers(2, 5))
    n_slices = int(rng.integers(1, 8))
    t_total = float(rng.uniform(0.2, 2.5))
    model = IdealModel(n_sites, coupling=float(rng.uniform(0.5, 2.0)))
    schedule = ControlSchedule(
        t_total=t_total, amplitudes=rng.uniform(-2.0, 2.0, n_slices)
    )
    psi0 = plus_product_state(n_sites)
    target = complete_graph_state(n_sites)
    phi, slope = landscape_at(model, schedule, psi0, target)
    assert abs(phi - final_population(model, schedule, psi0, target)) < 1e-12
    # every slice moves the field area by dt per unit amplitude
    grad = schedule.dt * slope
    for fd in slice_finite_differences(model, schedule, psi0, target):
        scale = max(abs(fd), abs(grad), 1e-3)
        assert abs(grad - fd) / scale < 1e-6


def test_gradient_uniform_across_slices():
    # the control commutes with the drift, so dPhi/dB_k is k-independent:
    # the finite differences of every slice agree with dt dPhi/dA
    model = RydbergModel(ChainGeometry.regular(3))
    rng = np.random.default_rng(3)
    schedule = ControlSchedule(t_total=0.14, amplitudes=rng.uniform(-5, 5, 12))
    psi0, target = plus_product_state(3), complete_graph_state(3)
    _, slope = landscape_at(model, schedule, psi0, target)
    fd = slice_finite_differences(model, schedule, psi0, target)
    assert np.ptp(fd) < 1e-11
    assert np.max(np.abs(fd - schedule.dt * slope)) < 1e-10


def test_reparameterization_degeneracy():
    # equal duration and equal field area give equal landscape values
    model = IdealModel(3)
    rng = np.random.default_rng(11)
    amps = rng.uniform(-1.5, 1.5, 10)
    base = ControlSchedule(t_total=2.3, amplitudes=amps)
    permuted = ControlSchedule(t_total=2.3, amplitudes=amps[::-1].copy())
    uniform = ControlSchedule(
        t_total=2.3, amplitudes=np.full(10, np.mean(amps))
    )
    psi0, target = plus_product_state(3), complete_graph_state(3)
    phis = [final_population(model, s, psi0, target) for s in (base, permuted, uniform)]
    assert abs(phis[0] - phis[1]) < 1e-12
    assert abs(phis[0] - phis[2]) < 1e-12


def test_winding_reduction_preserves_landscape():
    # shifting the field area by whole turns of 2 pi is a symmetry of the
    # landscape, so the reduced representative scores identically
    model = RydbergModel(ChainGeometry.regular(3))
    psi0, target = plus_product_state(3), complete_graph_state(3)
    rng = np.random.default_rng(2)
    for turns in (1, -3, 15):
        amps = rng.uniform(-5.0, 5.0, 10) + TWO_PI * turns / 0.141
        wound = ControlSchedule(t_total=0.141, amplitudes=amps)
        reduced = reduce_field_winding(wound)
        assert abs(reduced.field_area) <= np.pi + 1e-9
        assert reduced.n_slices == wound.n_slices
        np.testing.assert_allclose(
            reduced.amplitudes, wound.amplitudes - TWO_PI * turns / 0.141, atol=1e-9
        )
        phi_wound = landscape_at(model, wound, psi0, target)[0]
        phi_reduced = landscape_at(model, reduced, psi0, target)[0]
        assert abs(phi_wound - phi_reduced) < 1e-10


def test_winding_reduction_no_op_for_principal_area():
    schedule = ControlSchedule(t_total=2.0, amplitudes=np.array([0.3, -0.2, 0.4]))
    assert reduce_field_winding(schedule) is schedule


def mean_under_amplitude_error(model, t_total, area, sigma, points=80):
    """E[Phi(T, (1 + eps) A)] over a static relative amplitude error
    eps ~ N(0, sigma^2), by Gauss-Hermite quadrature in eps."""
    x, w = np.polynomial.hermite.hermgauss(points)
    pops = population(
        model, complete_graph_state(model.n_sites), t_total, (1.0 + np.sqrt(2.0) * sigma * x) * area
    )
    return float(np.sum(w * pops) / np.sqrt(np.pi))


@pytest.mark.parametrize(
    "n, expected",
    [
        (3, (0.98154, 0.86461, 0.97968)),
        (4, (0.98498, 0.94295, 0.86239)),
        (5, (0.97305, 0.87504, 0.86707)),
        (6, (0.92277, 0.77430, 0.85672)),
    ],
)
def test_principal_area_is_the_robust_winding(rydberg_results, n, expected):
    # a static 5 % error on the field amplitude scales the whole area, so a
    # schedule wound 2 pi further spreads over a wider range of areas: the
    # table schedules (random guess, seed 1) lose less at their reduced area
    # than at A + 2 pi or A - 2 pi, although all three are equal without noise
    schedule = rydberg_results[n].schedule
    model = RydbergModel(ChainGeometry.regular(n))
    area = schedule.field_area
    assert abs(area) <= np.pi
    means = [
        mean_under_amplitude_error(model, schedule.t_total, area + shift, 0.05)
        for shift in (0.0, TWO_PI, -TWO_PI)
    ]
    assert means == pytest.approx(expected, abs=1e-5)
    assert means[0] > max(means[1:])


def test_optimize_returns_principal_area():
    # the chain case pulls the random seed-1 guess many turns up the
    # uniform direction; the result must come back reduced
    result = optimize(
        rydberg_config(3, 0.141, GuessSpec(kind="random", b0=TWO_PI, seed=1))
    )
    assert abs(result.schedule.field_area) <= np.pi + 1e-9
    assert np.max(np.abs(result.schedule.amplitudes)) < 50.0


def test_zero_gradient_start_converges_immediately():
    # start exactly on the landscape maximum: psi0 already the target at T
    # with B = 0 and a single-slice schedule of vanishing duration effect;
    # use target = evolved psi0 so Phi = 1 and the gradient vanishes
    model = IdealModel(2)
    psi0 = complete_graph_state(2)
    schedule = ControlSchedule(t_total=1.0, amplitudes=np.zeros(1))
    from spingraph.operators import evolve_unitary
    from spingraph.chain import assemble_system

    target = evolve_unitary(assemble_system(model), 1.0, psi0)
    # assert through the optimizer's kernel: the slope at the constructed
    # point is zero
    phi, slope = landscape_at(model, schedule, psi0, target)
    assert phi == pytest.approx(1.0, abs=1e-12)
    assert abs(schedule.dt * slope) < 1e-12


def test_phi_history_monotone_and_final_matches(ideal_gaussian_results):
    for result in ideal_gaussian_results.values():
        hist = np.asarray(result.phi_history)
        assert np.all(np.diff(hist) >= -1e-12)
        assert result.final_population == pytest.approx(hist[-1], abs=1e-10)
        assert result.converged


def test_optimize_quick_case():
    result = optimize(ideal_config(3, 2.3, GuessSpec(kind="gaussian", b0=1.0)))
    assert result.final_population >= 0.995
    # doc example threshold for this row
    assert result.final_population >= 0.99


def test_optimize_rydberg_quick_case():
    result = optimize(
        rydberg_config(3, 0.141, GuessSpec(kind="gaussian", b0=TWO_PI))
    )
    assert result.final_population >= 0.998


def test_guess_independence_ideal(ideal_gaussian_results, ideal_random_results):
    # both guess families reach the same optimum on the ideal chain
    for n in ideal_gaussian_results:
        a = ideal_gaussian_results[n].final_population
        b = ideal_random_results[n].final_population
        assert abs(a - b) < 0.005


@pytest.mark.parametrize(
    "config, stalled, reachable",
    [
        *(
            (
                rydberg_config(4, t, GuessSpec(kind="gaussian", b0=TWO_PI)),
                (0.0013, 0.0014),
                (0.986, 0.992),
            )
            for t in (0.1656, 0.1699, 0.172, 0.1742)
        ),
        (
            ideal_config(5, 3.259, GuessSpec(kind="gaussian", b0=1.0)),
            (0.0030, 0.0030),
            (0.956, 0.956),
        ),
    ],
    ids=["rydberg-4-0.1656", "rydberg-4-0.1699", "rydberg-4-0.172", "rydberg-4-0.1742", "ideal-5-3.259"],
)
def test_readme_gaussian_stalls(config, stalled, reachable):
    # Known limits: the ascent from the Gaussian guess stops after 19-23
    # iterations, reporting converged, far below the best uniform shift of
    # the same guess (a 2001-point grid over one 2 pi period of field areas);
    # each range is the README's, at its printed precision
    result = optimize(config)
    assert result.converged and 19 <= result.iterations <= 23
    assert stalled[0] - 5e-5 <= result.final_population < stalled[1] + 5e-5
    n = config.model.n_sites
    areas = result.schedule.field_area + np.linspace(0.0, TWO_PI, 2001)
    pops = population(config.model, complete_graph_state(n), config.t_total, areas)
    assert reachable[0] - 5e-4 <= np.max(pops) < reachable[1] + 5e-4


@pytest.mark.parametrize("seed", [1, 3])
def test_readme_random_guess_stalls_at_seven_atoms(seed):
    # Known limits: on the 7-atom dipolar chain at T = 0.262 us a 10-slice
    # random guess starts near area T b0 / 2 whatever the seed, and the
    # ascent stops after 20-21 iterations, reporting converged, far below
    # the best uniform shift of the same guess (a 2001-point grid over one
    # 2 pi period of field areas) and below the Gaussian guess's result;
    # each value is the README's, at its printed precision
    config = rydberg_config(7, 0.262, GuessSpec(kind="random", b0=TWO_PI, seed=seed))
    result = optimize(config)
    assert result.converged and 20 <= result.iterations <= 21
    assert result.final_population == pytest.approx(0.000149867, abs=5e-10)
    areas = result.schedule.field_area + np.linspace(0.0, TWO_PI, 2001)
    pops = population(config.model, complete_graph_state(7), config.t_total, areas)
    assert np.max(pops) == pytest.approx(0.873135, abs=5e-7)
    gaussian = optimize(replace(config, guess=GuessSpec(kind="gaussian", b0=TWO_PI)))
    assert gaussian.final_population == pytest.approx(0.873135, abs=5e-7)


@pytest.mark.parametrize(
    "config",
    [
        ideal_config(3, 2.3, GuessSpec(kind="gaussian", b0=1.0)),
        rydberg_config(3, 0.141, GuessSpec(kind="random", b0=TWO_PI, seed=1)),
        rydberg_config(4, 0.172, GuessSpec(kind="random", b0=TWO_PI, seed=1)),
    ],
    ids=["ideal-3-gaussian", "rydberg-3-random", "rydberg-4-random"],
)
def test_optimize_shifts_the_guess_uniformly(config):
    # the ascent moves only the field area, so the schedule keeps the
    # guess's shape and differs from it by one offset on every slice
    result = optimize(config)
    guess = make_guess(config.guess, config.t_total)
    shift = result.schedule.amplitudes - guess.amplitudes
    assert np.ptp(shift) <= 1e-9 * np.max(np.abs(result.schedule.amplitudes))
    assert result.final_population > result.phi_history[0]


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_propagated_states_give_the_overlaps(n_sites):
    # the states the protocol propagates, block by block, against the
    # sector sum of the spin path
    model = RydbergModel(ChainGeometry.regular(n_sites))
    rng = np.random.default_rng(n_sites)
    psi = plus_product_state(n_sites)
    target = complete_graph_state(n_sites)
    t = rng.uniform(0.0, 0.3, 7)
    area = rng.uniform(-4.0, 4.0, 7)
    moves, coeffs, diagonal = drift_terms(model)
    hz = build_control_hz_diagonal(n_sites)
    states = np.zeros((7, 2**n_sites), dtype=complex)
    for idx, h in BlockPattern(moves, n_sites, SPIN_BASIS, np.flatnonzero(psi)).fill(coeffs, diagonal):
        stack = ClosedFormPropagator(h, hz[idx]).states(psi[idx], t, area)
        states[:, idx] = stack.swapaxes(0, 1)
    sectors = SpinSectors(model, psi)
    np.testing.assert_allclose(
        states @ target.conj(),
        spin_overlaps(sectors.hz, sectors.returns(target, t), area),
        rtol=0,
        atol=1e-14,
    )
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
def test_cz_target_shifts_the_landscape_by_pi_in_area(n_sites):
    # the two target forms differ by a global phase (odd N) or by the
    # uniform Z layer exp(-i pi Hz) (even N), which a field area of pi
    # supplies, so --target cz-circuit only relabels the area axis
    shift = np.pi if n_sites % 2 == 0 else 0.0
    psi0 = plus_product_state(n_sites)
    rng = np.random.default_rng(n_sites)
    for model, t_scale in (
        (IdealModel(n_sites), 4.0),
        (RydbergModel(ChainGeometry.regular(n_sites)), 0.3),
    ):
        sectors = SpinSectors(model, psi0)
        for t, area in zip(rng.uniform(0.0, t_scale, 5), rng.uniform(-np.pi, np.pi, 5)):
            cz = overlap_landscape(sectors, cz_graph_state(n_sites), t, area)
            op = overlap_landscape(sectors, complete_graph_state(n_sites), t, area - shift)
            np.testing.assert_allclose(cz, op, rtol=0, atol=1e-12)


#: (mode, N, T) rows for the reference ascent: the table rows plus N=2.
REFERENCE_CASES = [
    *(("ideal", n, t) for n, t in ((2, 1.6), *IDEAL_CASES)),
    *(("rydberg", n, t) for n, t in ((2, 0.11), *RYDBERG_CASES)),
]


@pytest.mark.parametrize("target", list(TargetForm), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", ["gaussian", "random"])
@pytest.mark.parametrize(
    "mode, n_sites, t_total", REFERENCE_CASES, ids=str
)
def test_optimize_equals_the_per_call_ascent(mode, n_sites, t_total, kind, target):
    # the landscape of ``optimize`` forms its return amplitudes once per
    # run; fresh ones give the same operands, so every accepted step agrees
    # bit for bit
    make_config = ideal_config if mode == "ideal" else rydberg_config
    b0 = 1.0 if mode == "ideal" else TWO_PI
    config = replace(make_config(n_sites, t_total, GuessSpec(kind=kind, b0=b0)), target=target)
    result, expected = optimize(config), reference_optimize(config)
    assert result.phi_history == expected.phi_history
    assert np.array_equal(result.schedule.amplitudes, expected.schedule.amplitudes)
    assert result.final_population == expected.final_population
    assert result.converged == expected.converged


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(2, 6),
    rydberg=st.booleans(),
    cz=st.booleans(),
    t_scale=st.floats(0.0, 1.0),
    area=st.floats(-50.0, 50.0),
)
def test_landscape_matches_the_dense_reference(n_sites, rydberg, cz, t_scale, area):
    # oracle: the kron-product H0 exponentiated as a whole, and the slope as
    # the overlap with -i Hz psi0, d/dA of exp(-i A Hz) psi0
    model = RydbergModel(ChainGeometry.regular(n_sites)) if rydberg else IdealModel(n_sites)
    t = t_scale * (0.3 if rydberg else 4.0)
    psi0 = plus_product_state(n_sites)
    target = (cz_graph_state if cz else complete_graph_state)(n_sites)
    hz = np.diag(kron_control_hz(n_sites, SPIN_BASIS)).real
    h0 = kron_drift(model, SPIN_BASIS)
    dressed = np.exp(-1j * area * hz) * psi0
    overlap, d_overlap = (
        np.vdot(target, evolve_unitary(h0, t, psi)) for psi in (dressed, -1j * hz * dressed)
    )
    phi, slope = overlap_landscape(SpinSectors(model, psi0), target, t, area)
    assert phi == pytest.approx(abs(overlap) ** 2, abs=1e-13)
    assert slope == pytest.approx(2.0 * np.real(np.conj(overlap) * d_overlap), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(2, 6),
    rydberg=st.booleans(),
    target=st.sampled_from(list(TargetForm)),
    t_scale=st.floats(0.0, 1.0),
    areas=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
)
def test_ascent_landscape_equals_the_numpy_expression(n_sites, rydberg, target, t_scale, areas):
    # the ascent reads each product back as Python complex numbers, whose
    # abs and products must round as the numpy scalars of overlap_landscape
    model = RydbergModel(ChainGeometry.regular(n_sites)) if rydberg else IdealModel(n_sites)
    t = t_scale * (0.3 if rydberg else 4.0)
    sectors = SpinSectors(model, plus_product_state(n_sites))
    state = target_state(target, n_sites)
    landscape = grape._landscape(sectors, state, t)
    for area in areas:
        phi, slope = landscape(area)
        assert type(phi) is float and type(slope) is float
        expected = overlap_landscape(sectors, state, t, area)
        assert (phi.hex(), slope.hex()) == tuple(map(float.hex, expected))


def test_scan_duration_grid_and_peaks():
    cfg = rydberg_config(3, 0.3, GuessSpec(kind="gaussian", b0=TWO_PI))
    scan = scan_duration(cfg, 0.1, 0.2, 11)
    ts = [t for t, _ in scan.points]
    assert len(ts) == 11
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[0] == pytest.approx(0.1) and ts[-1] == pytest.approx(0.2)
    # the 0.141 peak is interior to this window
    assert scan.maxima
    t_best, p_best = scan.maxima[0]
    assert abs(t_best - 0.14) < 0.011
    assert p_best > 0.99
    # maxima ranked by population, dominant first
    pops = [p for _, p in scan.maxima]
    assert pops == sorted(pops, reverse=True)
    with pytest.raises(ValueError):
        scan_duration(cfg, 0.2, 0.1, 5)
    with pytest.raises(ValueError):
        scan_duration(cfg, 0.1, 0.2, 1)


@pytest.mark.parametrize(
    "config, window",
    [
        (rydberg_config(3, 0.141, GuessSpec(kind="random", b0=TWO_PI, seed=1)), (0.05, 0.75)),
        (ideal_config(4, 2.808, GuessSpec(kind="gaussian", b0=1.0)), (1.5, 4.0)),
    ],
    ids=["rydberg-3", "ideal-4"],
)
def test_scan_points_equal_their_own_optimize_runs(config, window):
    # the scan runs every point's ascent on one decomposition; each point's
    # population is the one optimize reaches at that duration, bit for bit
    scan = scan_duration(config, *window, 15)
    for t, population in scan.points:
        assert population == optimize(replace(config, t_total=t)).final_population


def test_scan_decomposes_the_drift_once(monkeypatch):
    calls = []
    original_eigh = np.linalg.eigh

    def spying_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return original_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spying_eigh)
    config = rydberg_config(3, 0.141, GuessSpec(kind="gaussian", b0=TWO_PI))
    optimize(config)
    one_run = list(calls)
    calls.clear()
    scan_duration(config, 0.05, 0.75, 71)
    # sectors of 1, 3, 3 and 1 configurations: one stacked call per size,
    # for the whole grid as for one optimize run
    assert calls == one_run == [(2, 1, 1), (2, 3, 3)]


def test_schedules_compare_by_value():
    # equal copies are equal and hash alike; another amplitude, duration or
    # slice count is unequal; no comparison raises
    a, b = ControlSchedule(0.1, np.ones(3)), ControlSchedule(0.1, np.ones(3))
    assert a == b and hash(a) == hash(b)
    for other in (
        ControlSchedule(0.1, np.array([1.0, 1.5, 1.0])),
        ControlSchedule(0.2, np.ones(3)),
        ControlSchedule(0.1, np.ones(4)),
    ):
        assert a != other
    assert a != a.amplitudes.tolist() and a != 0.1
    zero, signed = ControlSchedule(0.1, np.zeros(2)), ControlSchedule(0.1, np.array([-0.0, 0.0]))
    assert zero == signed and hash(zero) == hash(signed)


def test_schedule_record_round_trip(tmp_path):
    schedule = ControlSchedule(
        t_total=0.141, amplitudes=np.array([0.1, -2.5, np.pi, 1e-17])
    )
    record = schedule_to_record(
        schedule,
        mode="rydberg",
        n_sites=3,
        seed=1,
        constants_version="rydberg-constants-v1",
        phi_history=[0.5, 0.75, 1.0 - 1e-12],
        final_population=1.0 - 1e-12,
    )
    assert record["mode"] == "rydberg"
    assert record["N"] == 3
    assert record["T"] == 0.141
    assert record["n"] == 4
    path = tmp_path / "schedule.json"
    save_result(path, record)
    loaded = load_result(path)
    back = schedule_from_record(loaded)
    assert back.t_total == schedule.t_total
    assert np.array_equal(back.amplitudes, schedule.amplitudes)
    # a second save of the loaded record is byte-identical
    path2 = tmp_path / "schedule2.json"
    save_result(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_save_result_writes_json_dumps_bytes(tmp_path):
    """save_result's single write gives exactly the bytes of json.dump with
    indent 1 followed by a newline, for nested lists, None, bools, NaN,
    infinities and a non-ASCII string."""
    record = {
        "label": "π/2 → clock, \"quoted\"\n",
        "nested": [[1.0, -0.0, 5e-324], [], [[None, True, False]]],
        "values": [math.nan, math.inf, -math.inf, 0.1 + 0.2],
        "empty": {},
        "count": 3,
    }
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    save_result(got, record)
    with open(want, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    assert got.read_bytes() == want.read_bytes()


def test_schedule_record_validates_slice_count():
    record = {
        "mode": "ideal",
        "N": 3,
        "T": 1.0,
        "n": 3,
        "amplitudes": [1.0, 2.0],
        "phi_history": [],
        "final_population": None,
        "seed": None,
        "constants_version": "x",
    }
    with pytest.raises(ValueError):
        schedule_from_record(record)


@pytest.mark.parametrize(
    "record, message",
    [
        ([1.0], "JSON object, not a list"),
        ({"T": True, "n": 1, "amplitudes": [1.0]}, "numeric T"),
        ({"T": 1.0, "n": 1.0, "amplitudes": [1.0]}, "integer n"),
        ({"T": 1.0, "n": True, "amplitudes": [1.0]}, "integer n"),
        ({"T": 1.0, "n": 1, "amplitudes": "1.0"}, "list of numbers"),
        ({"T": 1.0, "n": 1, "amplitudes": [None]}, "list of numbers"),
    ],
)
def test_schedule_record_validates_its_fields(record, message):
    with pytest.raises(ValueError, match=message):
        schedule_from_record(record)


def test_optimize_rejects_bad_config():
    # the schedule's own duration check, so infinity is refused too
    for t_total in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^t_total must be finite and positive$"):
            GrapeConfig(
                model=IdealModel(3),
                t_total=t_total,
                guess=GuessSpec(kind="gaussian", b0=1.0),
                target=TargetForm.OPERATOR_PRODUCT,
            )
    with pytest.raises(ValueError):
        GuessSpec(kind="triangular", b0=1.0)


def test_non_commuting_drift_is_refused(monkeypatch):
    # a transverse field breaks [H0, Hz] = 0, on which the closed form
    # rests: its flips join the sectors into blocks that span several Hz
    # values, and every spin-path entry refuses them
    original = grape.drift_terms
    flips = tuple(((site, "up", "down"),) for site in range(3))

    def transverse_drift(model, basis=SPIN_BASIS, positions=None):
        moves, coeffs, diagonal = original(model, basis, positions)
        return moves + flips, np.append(coeffs, np.full(len(flips), 0.3)), diagonal

    moves, coeffs, diagonal = transverse_drift(IdealModel(3))
    transverse = sum(0.3 * embed_local_operator(SIGMA_X, site, 3, SPIN_BASIS) for site in range(3))
    assert np.array_equal(
        hermitian_sum(moves, coeffs, diagonal, 3, SPIN_BASIS),
        kron_drift(IdealModel(3), SPIN_BASIS) + transverse,
    )
    monkeypatch.setattr(grape, "drift_terms", transverse_drift)
    schedule = ControlSchedule(t_total=2.3, amplitudes=np.ones(5))
    psi0, target = plus_product_state(3), complete_graph_state(3)
    for run in (
        lambda: landscape_at(IdealModel(3), schedule, psi0, target),
        lambda: optimize(ideal_config(3, 2.3, GuessSpec(kind="gaussian", b0=1.0))),
        lambda: closed_system_trace(IdealModel(3), schedule, psi0, target),
    ):
        with pytest.raises(GrapeError, match="does not commute"):
            run()


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 12),
    stack=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
)
def test_sector_kernel_matches_the_dense_propagator(dim, stack, seed, degenerate):
    """Random Hermitian drifts on a block where Hz takes one random integer
    value, one drift or a stack, against dense exp(-i (h + (A/t) Hz) t).
    With ``degenerate`` every spectrum comes from {-1, 0, 1}, so
    eigenvalues repeat, as in the ideal XX chain."""
    rng = np.random.default_rng(seed)
    hz = np.full(dim, float(rng.integers(-2, 3)))
    h = random_hermitian(rng, stack + (dim, dim))
    if degenerate:
        q, _ = np.linalg.qr(h)
        h = (q * rng.integers(-1, 2, stack + (1, dim))) @ q.conj().swapaxes(-1, -2)
    prop = ClosedFormPropagator(h, hz)
    psi, target = random_state(rng, dim), random_state(rng, dim)
    for t, area in zip(rng.uniform(0.1, 2.0, 3), rng.uniform(-4.0, 4.0, 3)):
        states, overlaps = prop.states(psi, t, area), prop.overlaps(target, psi, t, area)
        for row in np.ndindex(stack):
            dense = evolve_unitary(h[row] + np.diag(area / t * hz), t, psi)
            np.testing.assert_allclose(states[row], dense, rtol=0, atol=1e-12)
            np.testing.assert_allclose(overlaps[row], np.vdot(target, dense), rtol=0, atol=1e-12)
    # the same drifts on a block where Hz takes two values are refused
    if dim > 1:
        hz[-1] += 1.0
        with pytest.raises(GrapeError, match="commute"):
            ClosedFormPropagator(h, hz)


@settings(max_examples=60, deadline=None)
@given(
    stack=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    dim=st.integers(1, 8),
    grid=st.sampled_from([((), ()), ((3,), ()), ((), (2,)), ((4,), (4,)), ((2, 1), (3,))]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_kernel_matches_the_kernel_block_by_block(stack, dim, grid, seed):
    """A stack of random Hermitian drifts that share one Hz value: the
    stacked ``states`` and ``overlaps`` put the stack axes first, then the
    broadcast shape of (t, A), and equal the one-block kernel row by row."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, stack + (dim, dim))
    hz = np.full(dim, float(rng.integers(-3, 4)))
    psi, target = random_state(rng, dim), random_state(rng, dim)
    t = rng.uniform(0.1, 2.0, grid[0])
    area = rng.uniform(-4.0, 4.0, grid[1])
    prop = ClosedFormPropagator(h, hz)
    states, overlaps = prop.states(psi, t, area), prop.overlaps(target, psi, t, area)
    shape = stack + np.broadcast_shapes(t.shape, area.shape)
    assert states.shape == shape + (dim,)
    assert overlaps.shape == shape
    for row in np.ndindex(stack):
        block = ClosedFormPropagator(h[row], hz)
        np.testing.assert_allclose(states[row], block.states(psi, t, area), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            overlaps[row], block.overlaps(target, psi, t, area), rtol=0, atol=1e-15
        )


def test_a_stack_spanning_several_hz_values_is_refused():
    # the closed form needs one Hz value per block: a block or a stack on
    # which Hz takes two is refused, whether or not its drift couples them
    rng = np.random.default_rng(5)
    hz = np.array([0.0, 0.0, 1.0])
    h = np.zeros((2, 3, 3), dtype=complex)
    h[:, :2, :2] = random_hermitian(rng, (2, 2, 2))
    h[:, 2, 2] = 0.5
    for drift in (h, h[0]):
        with pytest.raises(GrapeError, match="does not commute.*Hz values 0.0 to 1.0"):
            ClosedFormPropagator(drift, hz)


@pytest.mark.parametrize("geometries", [(), (2,)])
def test_each_block_of_a_stack_keeps_its_own_hz_value_and_input(geometries):
    # the core stage's equal-size blocks differ from each other in Hz: a
    # stack of S blocks, each with one Hz value, input row and target row
    # of its own (after any geometry axis), against each block's own
    # decomposition and the dense propagator
    rng = np.random.default_rng(11)
    s, k = 4, 5
    h = random_hermitian(rng, geometries + (s, k, k))
    hz = np.repeat(np.array([-1.5, 0.0, 2.0, 0.5])[:, None], k, axis=1)
    psi = np.stack([random_state(rng, k) for _ in range(s)])
    target = np.stack([random_state(rng, k) for _ in range(s)])
    t, area = rng.uniform(0.1, 2.0, 6), rng.uniform(-4.0, 4.0, 6)
    prop = ClosedFormPropagator(h, hz)
    states, overlaps = prop.states(psi, t, area), prop.overlaps(target, psi, t, area)
    assert states.shape == geometries + (s, 6, k) and overlaps.shape == geometries + (s, 6)
    for row in np.ndindex(geometries + (s,)):
        b = row[-1]
        block = ClosedFormPropagator(h[row], hz[b])
        np.testing.assert_allclose(
            states[row], block.states(psi[b], t, area), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            overlaps[row], block.overlaps(target[b], psi[b], t, area), rtol=0, atol=1e-13
        )
        for j in range(t.size):
            dense = evolve_unitary(h[row] + np.diag(area[j] / t[j] * hz[b]), t[j], psi[b])
            np.testing.assert_allclose(states[row][j], dense, rtol=0, atol=1e-12)


def test_a_stack_is_refused_by_the_block_that_spans_two_hz_values():
    # neighbours holding other single values are legal: the message names
    # the offending block's values, not the extremes of the whole stack
    h = random_hermitian(np.random.default_rng(12), (3, 2, 2))
    hz = np.array([[-4.0, -4.0], [0.0, 1.0], [7.0, 7.0]])
    with pytest.raises(GrapeError, match=r"does not commute.*Hz values 0\.0 to 1\.0$"):
        ClosedFormPropagator(h, hz)
    hz[1] = 1.0
    ClosedFormPropagator(h, hz)


def block_returns(fill, hz, psi, target, t):
    """c_b(t) of every block of a ``BlockPattern`` fill, one block per
    column, ordered by smallest index."""
    parts = {}
    for idx, h in fill:
        c = ClosedFormPropagator(h, hz[idx]).overlaps(target[idx], psi[idx], t, 0.0)
        parts.update(zip(idx[:, 0], c))
    return np.stack([parts[first] for first in sorted(parts)], axis=-1)


@pytest.mark.parametrize("kind", ["ideal", "rydberg"])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_real_sector_kernels_match_the_complex_fill_and_the_kron_drift(n_sites, kind):
    # every spin-path coupling is real, so the sectors are real symmetric
    # blocks; the same blocks filled as complex Hermitian ones, and the kron
    # drift exponentiated whole and projected on each block, give the same
    # return amplitudes c_b(t)
    if kind == "ideal":
        model, t = IdealModel(n_sites), np.linspace(0.0, 3.0, 7)
    else:
        model = RydbergModel(ChainGeometry.regular(n_sites).with_delta_r(0.013))
        t = np.linspace(0.0, 0.3, 7)
    psi, target = plus_product_state(n_sites), complete_graph_state(n_sites)
    moves, coeffs, diagonal = drift_terms(model)
    hz = build_control_hz_diagonal(n_sites)
    pattern = BlockPattern(moves, n_sites, SPIN_BASIS, np.flatnonzero(psi))
    real_fill, complex_fill = pattern.fill(coeffs, diagonal), pattern.fill(coeffs + 0j, diagonal)
    assert all(h.dtype == np.float64 for _, h in real_fill)
    assert all(h.dtype == complex for _, h in complex_fill)
    real, hermitian = (
        block_returns(fill, hz, psi, target, t) for fill in (real_fill, complex_fill)
    )
    w, v = np.linalg.eigh(kron_drift(model, SPIN_BASIS))
    evolved = (np.exp(-1j * np.outer(t, w)) * (v.conj().T @ psi)) @ v.T
    blocks = sorted((row for idx in pattern.indices for row in idx), key=lambda row: row[0])
    dense = np.stack([evolved[:, b] @ target[b].conj() for b in blocks], axis=-1)
    returns = SpinSectors(model, psi).returns(target, t)
    for oracle in (hermitian, dense):
        np.testing.assert_allclose(real, oracle, rtol=0, atol=1e-13)
    assert np.array_equal(returns, real)


def test_real_block_overlaps_take_the_field_area():
    # a real symmetric stack, with the field area given by keyword, against
    # its complex Hermitian copy and the dense propagator of h + (A/t) Hz
    rng = np.random.default_rng(13)
    h = rng.normal(size=(3, 4, 4))
    h += h.swapaxes(-1, -2)
    hz = np.full(4, 1.5)
    psi, target = random_state(rng, 4), random_state(rng, 4)
    t, area = rng.uniform(0.1, 2.0, 5), rng.uniform(-4.0, 4.0, 5)
    got = ClosedFormPropagator(h, hz).overlaps(target, psi, t, area=area)
    hermitian = ClosedFormPropagator(h + 0j, hz).overlaps(target, psi, t, area=area)
    np.testing.assert_allclose(got, hermitian, rtol=0, atol=1e-13)
    for row, j in np.ndindex(3, 5):
        dense = evolve_unitary(h[row] + np.diag(area[j] / t[j] * hz), t[j], psi)
        assert abs(got[row, j] - np.vdot(target, dense)) < 1e-13


#: Grid sizes of the ladder tests: one point, perfect squares and their
#: neighbours, the 101 boundaries of a 100-slice schedule, and 10^4 slices.
LADDER_COUNTS = [1, 2, 3, 4, 5, 10, 11, 101, 10001]


@pytest.mark.parametrize("count", LADDER_COUNTS)
@pytest.mark.parametrize("dtype", [float, complex])
def test_ladder_product_matches_per_point_overlaps(dtype, count):
    # a (G, S, k, k) stack of real symmetric or complex Hermitian blocks,
    # each with its own Hz value and input: the grid k dt, k < count, as
    # ceil(count / B) giant durations with B = ceil(sqrt(count)) offsets
    # each, in one product, against one overlap per grid point
    rng = np.random.default_rng(count)
    h = random_hermitian(rng, (2, 3, 5, 5))
    h = h.real if dtype is float else h
    hz = np.repeat(np.array([-1.0, 0.0, 2.0])[:, None], 5, axis=1)
    psi = np.stack([random_state(rng, 5) for _ in range(3)])
    target = np.stack([random_state(rng, 5) for _ in range(3)])
    dt, steps = 2.0 / count, math.ceil(math.sqrt(count))
    prop = ClosedFormPropagator(h, hz)
    ladder = prop.overlaps(target, psi, dt * np.arange(0, count, steps), 0.7, dt * np.arange(steps))
    assert ladder.shape == (2, 3, math.ceil(count / steps), steps)
    points = prop.overlaps(target, psi, dt * np.arange(count), 0.7)
    np.testing.assert_allclose(
        ladder.reshape(2, 3, -1)[..., :count], points, rtol=0, atol=1e-14
    )


def test_a_zero_offset_leaves_the_overlaps_bit_for_bit():
    # arbitrary durations are the single-offset case: the default offset 0
    # keeps the shape of (t, A), and its row of ones leaves the product of
    # the phase rows with the weight row W = (psi V*) (target* V) exact
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, (3, 4, 4))
    psi, target = random_state(rng, 4), random_state(rng, 4)
    t, area = np.broadcast_arrays(rng.uniform(0.1, 2.0, (2, 1)), rng.uniform(-4.0, 4.0, 5))
    prop = ClosedFormPropagator(h, np.full(4, 1.5))
    got = prop.overlaps(target, psi, t, area)
    assert got.shape == (3, 2, 5)
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * (t.reshape(-1, 1) * w[:, None, :] + area.reshape(-1, 1) * 1.5))
    weights = (psi[None, :] @ v.conj()) * (target.conj()[None, :] @ v)
    assert np.array_equal(got, (phases @ weights.swapaxes(-1, -2)).reshape(3, 2, 5))


@pytest.mark.parametrize("count", LADDER_COUNTS)
@pytest.mark.parametrize("kind", ["ideal", "rydberg", "geometries"])
def test_grid_returns_match_per_point_returns(kind, count):
    # SpinSectors on the grid (dt, count) against ``returns`` at each grid
    # point k dt: the model's own real blocks, and a (G, N, 3) stack of
    # atom positions, whose drifts come as (G, S, k, k) stacks
    n_sites, positions, rows = 5, None, None
    if kind == "ideal":
        model, t_total = IdealModel(n_sites), 3.0
    else:
        model, t_total = RydbergModel(ChainGeometry.regular(n_sites)), 0.3
    if kind == "geometries":
        rng = np.random.default_rng(count)
        positions = model.geometry.positions + rng.normal(0.0, 0.2, (3, n_sites, 3))
        rows = slice(None)
    sectors = SpinSectors(model, plus_product_state(n_sites), positions)
    target, dt = complete_graph_state(n_sites), t_total / count
    got = sectors.grid_returns(target, dt, count, rows)
    want = sectors.returns(target, dt * np.arange(count), rows)
    assert got.shape == want.shape == (3,) * (kind == "geometries") + (count, n_sites + 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_grid_returns_take_giant_and_baby_phase_rows(monkeypatch):
    # B = ceil(sqrt(count)) baby steps and ceil(count / B) giant steps per
    # kernel call, 10 + 11 phase rows for the 101 boundaries of 100 slices,
    # never one row per grid point
    calls = []
    original = ClosedFormPropagator.overlaps

    def spy(self, target, psi, t, area, offsets=0.0):
        calls.append((np.size(t), np.size(offsets)))
        return original(self, target, psi, t, area, offsets)

    monkeypatch.setattr(ClosedFormPropagator, "overlaps", spy)
    sectors = SpinSectors(IdealModel(4), plus_product_state(4))
    for count in LADDER_COUNTS:
        calls.clear()
        sectors.grid_returns(complete_graph_state(4), 0.01, count)
        steps = math.ceil(math.sqrt(count))
        assert set(calls) == {(math.ceil(count / steps), steps)}
    calls.clear()
    sectors.grid_returns(complete_graph_state(4), 0.01, 101)
    assert set(calls) == {(10, 11)}


def test_grid_returns_beyond_the_trace_budget_are_refused_before_any_phase(monkeypatch):
    # six atoms have seven sectors: 10^7 // 7 boundaries fit the budget, one
    # more is refused before the propagator is asked for a phase row
    monkeypatch.setattr(ClosedFormPropagator, "overlaps", None)
    sectors = SpinSectors(RydbergModel(ChainGeometry.regular(6)), plus_product_state(6))
    count = MAX_TRACE_STACK // 7 + 1
    message = f"{count} slice boundaries x 7 sectors exceed the return budget of 10000000"
    with pytest.raises(ValueError, match=message):
        sectors.grid_returns(complete_graph_state(6), 1e-6, count)


@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(2, 5),
    ideal=st.booleans(),
    count=st.integers(1, 3000),
    t_total=st.floats(1e-3, 1.0),
)
def test_grid_returns_match_per_point_returns_for_any_grid(n_sites, ideal, count, t_total):
    """Any step dt and grid size: the ladder split equals one overlap per
    point, for grids whose last point stays within a microsecond (three
    in J units), where the phases t w round alike either way."""
    model = IdealModel(n_sites) if ideal else RydbergModel(ChainGeometry.regular(n_sites))
    dt = (3.0 if ideal else 1.0) * t_total / count
    sectors = SpinSectors(model, plus_product_state(n_sites))
    target = complete_graph_state(n_sites)
    got = sectors.grid_returns(target, dt, count)
    want = sectors.returns(target, dt * np.arange(count))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("target_form", list(TargetForm), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", ["ideal", "rydberg"])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
def test_returns_match_the_dense_sector_projections(n_sites, kind, target_form):
    # oracle: <target| P_m exp(-i H0 t) |psi0> with the kron-product H0
    # exponentiated as a whole and P_m the projector on the configurations
    # where the kron-product Hz takes the value h_m
    model = IdealModel(n_sites) if kind == "ideal" else RydbergModel(ChainGeometry.regular(n_sites))
    psi0, target = plus_product_state(n_sites), target_state(target_form, n_sites)
    t = np.random.default_rng(n_sites).uniform(0.0, 4.0 if kind == "ideal" else 0.3, 5)
    hz = np.diag(kron_control_hz(n_sites, SPIN_BASIS)).real
    h0 = kron_drift(model, SPIN_BASIS)
    sectors = SpinSectors(model, psi0)
    returns = sectors.returns(target, t)
    assert returns.shape == (5, len(sectors.hz))
    for k, t_k in enumerate(t):
        psi = evolve_unitary(h0, t_k, psi0)
        for value in np.unique(hz):
            projected = np.vdot(target, np.where(hz == value, psi, 0.0))
            got = returns[k, sectors.hz == value].sum()
            assert abs(got - projected) < 1e-13


@pytest.mark.parametrize("target_form", list(TargetForm), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", ["ideal", "rydberg"])
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
def test_returns_are_signed_dicke_returns(n_sites, kind, target_form):
    """Both targets carry one sign s_m on every configuration of up-count m,
    so c_m = s_m <+|P_m exp(-i H0 t)|+> = s_m C(N,m)/2^N L_m(t), with L_m
    the return amplitude of the Dicke state D_m (Dicke, Phys. Rev. 93, 99
    (1954)): s_m = (-1)^{m(m-1)/2} for the operator-product form and
    (-1)^{k(k-1)/2}, k = N - m, for the CZ circuit. The sign flips are
    exact, so the two sides agree bit for bit."""
    model = IdealModel(n_sites) if kind == "ideal" else RydbergModel(ChainGeometry.regular(n_sites))
    plus = plus_product_state(n_sites)
    t = np.linspace(0.0, 4.0 if kind == "ideal" else 0.75, 13)
    sectors = SpinSectors(model, plus)
    m = (sectors.hz + n_sites / 2).astype(int)
    assert np.array_equal(m, sectors.hz + n_sites / 2)
    count = m if target_form is TargetForm.OPERATOR_PRODUCT else n_sites - m
    signs = (-1.0) ** (count * (count - 1) // 2)
    returns = sectors.returns(target_state(target_form, n_sites), t)
    assert np.array_equal(returns, signs * sectors.returns(plus, t))


@pytest.mark.parametrize(
    "model", [IdealModel(6), RydbergModel(ChainGeometry.regular(6))], ids=["ideal", "rydberg"]
)
def test_spin_path_decomposes_equal_size_sectors_together(model, monkeypatch):
    calls = []
    original_eigh = np.linalg.eigh

    def spying_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return original_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spying_eigh)
    psi0, target = plus_product_state(6), complete_graph_state(6)
    schedule = ControlSchedule(t_total=0.2, amplitudes=np.ones(4))
    config = GrapeConfig(model, 0.2, GuessSpec(kind="gaussian", b0=1.0), TargetForm.OPERATOR_PRODUCT)
    for run in (
        lambda: optimize(config),
        lambda: closed_system_trace(model, schedule, psi0, target),
        lambda: open_system_trace(model, schedule, DEFAULT_JUMPS, psi0, target),
    ):
        calls.clear()
        run()
        # C(6, m) spin configurations with m up-spins, the largest C(6, 3) = 20;
        # never the 64-dimensional drift. Sectors m and 6 - m share a size,
        # so one stacked call per size decomposes each sector once
        assert len(calls) == 4
        sizes = [shape[-1] for shape in calls for _ in range(math.prod(shape[:-2]))]
        assert sorted(sizes) == [1, 1, 6, 6, 15, 15, 20]
