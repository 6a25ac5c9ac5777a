"""Closed-form three-site benchmark against the package's kernel and a
dense expm."""

import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from spingraph.analytic import (
    CLOSED_FORM_AMPLITUDES,
    PRINTED_TO_CANONICAL,
    analytic_n3_amplitudes,
    analytic_state,
    constant_field_params,
    constant_field_population,
    propagated_population,
    scan_constant_field,
)
from spingraph.cli import main
from spingraph.grape import local_maxima
from spingraph.operators import SPIN_BASIS, evolve_unitary, site_levels
from spingraph.targets import complete_graph_state, plus_product_state

from kron_reference import PRINTED_ORDER_LABELS, constant_field_hamiltonian

SQRT2 = np.sqrt(2.0)

# (c1, c2) -> (field, arrival time) at j = 1, frozen from the formulas
FAMILY_CASES = [
    (0, 0, -2.8284271247461903, 1.1107207345395915),
    (0, 1, -0.9428090415820634, 3.3321622036187746),
    (1, 1, 8.485281374238571, 1.1107207345395915),
]


def test_printed_order_mapping():
    # ket label per basis index, sites left to right, levels joined by '.'
    labels = [".".join(row) for row in np.array(SPIN_BASIS.levels)[site_levels(3, 2)]]
    for printed_idx, canonical_idx in enumerate(PRINTED_TO_CANONICAL):
        assert labels[canonical_idx] == PRINTED_ORDER_LABELS[printed_idx]


def test_state_is_the_printed_amplitudes_through_the_mapping():
    # bit for bit the printed amplitudes placed at PRINTED_TO_CANONICAL,
    # and the amplitude stack itself, in C order
    b, t = np.array([-3.0, 0.5, 7.25])[:, None], np.array([0.0, 0.4, 1.3, 2.9])
    printed = analytic_n3_amplitudes(1.3, b, t)
    mapped = np.empty_like(printed)
    mapped[..., list(PRINTED_TO_CANONICAL)] = printed
    state = analytic_state(1.3, b, t)
    assert state.tobytes() == mapped.tobytes()
    assert state.flags.c_contiguous and state.base is not None


def test_a_scan_holds_no_more_than_the_counted_amplitudes():
    """At 10^5 grid points the scan's traced peak stays within the
    CLOSED_FORM_AMPLITUDES the refusal counts per point, plus what does not
    grow with the grid: numpy's casting buffer of ``np.getbufsize()``
    amplitudes and a few rows along each axis."""
    b_grid, t_grid = np.linspace(-10.0, 10.0, 250), np.linspace(0.01, 3.5, 400)
    scan_constant_field(1.0, b_grid[:3], t_grid[:3])  # caches, outside the count
    tracemalloc.start()
    try:
        scan_constant_field(1.0, b_grid, t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    amplitude = np.dtype(complex).itemsize
    counted = CLOSED_FORM_AMPLITUDES * amplitude * b_grid.size * t_grid.size
    fixed = amplitude * (np.getbufsize() + 8 * (b_grid.size + t_grid.size))
    assert counted - amplitude * b_grid.size * t_grid.size < peak <= counted + fixed


def test_initial_state_is_plus_product():
    psi = analytic_state(1.0, 3.7, 0.0)
    np.testing.assert_allclose(psi, plus_product_state(3), atol=1e-15)
    amps = analytic_n3_amplitudes(1.0, 3.7, 0.0)
    np.testing.assert_allclose(np.abs(amps), 1.0 / (2.0 * SQRT2), atol=1e-15)


def test_state_is_normalized_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(10):
        j, b, t = rng.uniform(0.5, 2.0), rng.uniform(-10, 10), rng.uniform(0, 5)
        assert abs(np.linalg.norm(analytic_state(j, b, t)) - 1.0) < 1e-12


def test_closed_form_matches_propagation():
    # full complex amplitudes against the dense expm, and the population
    # against the kernel, at random points
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        j = rng.uniform(0.5, 2.0)
        b = rng.uniform(-10.0, 10.0)
        t = rng.uniform(0.0, 5.0)
        exact = analytic_state(j, b, t)
        prop = evolve_unitary(constant_field_hamiltonian(j, b), t, plus_product_state(3))
        worst = max(worst, float(np.max(np.abs(exact - prop))))
        assert abs(constant_field_population(j, b, t) - propagated_population(j, b, t)) < 1e-10
    assert worst < 1e-8


def test_kernel_matches_dense_expm_on_the_family():
    # the kernel's field area FIELD_SIGN b t is the dense H_con's field term
    target = complete_graph_state(3)
    for c1 in range(3):
        for c2 in range(c1, c1 + 5):
            sol = constant_field_params(c1, c2, 1.0)
            psi = evolve_unitary(constant_field_hamiltonian(1.0, sol.b), sol.t_star, plus_product_state(3))
            dense = abs(np.vdot(target, psi)) ** 2
            assert abs(propagated_population(1.0, sol.b, sol.t_star) - dense) < 1e-14


def test_closed_forms_broadcast_over_b_and_t():
    b = np.array([-3.0, 0.5, 7.25])[:, None]
    t = np.array([0.0, 0.4, 1.3, 2.9])[None, :]
    states = analytic_state(1.3, b, t)
    pops = constant_field_population(1.3, b, t)
    assert states.shape == (3, 4, 8) and pops.shape == (3, 4)
    kernel = propagated_population(1.3, b, t)
    for i in range(3):
        for k in range(4):
            point = analytic_state(1.3, b[i, 0], t[0, k])
            np.testing.assert_allclose(states[i, k], point, atol=1e-15)
            assert pops[i, k] == pytest.approx(constant_field_population(1.3, b[i, 0], t[0, k]), abs=1e-15)
            assert kernel[i, k] == pytest.approx(pops[i, k], abs=1e-12)


def test_amplitude_magnitudes_do_not_depend_on_field():
    # the field only rotates magnetization sectors, so |psi_i| is b-independent
    t = 0.83
    ref = np.abs(analytic_n3_amplitudes(1.0, 0.0, t))
    for b in (-7.3, -1.0, 2.5, 9.1):
        np.testing.assert_allclose(np.abs(analytic_n3_amplitudes(1.0, b, t)), ref, atol=1e-14)
    # edge configurations keep their weight at all times
    assert ref[0] == pytest.approx(1.0 / (2.0 * SQRT2))
    assert ref[7] == pytest.approx(1.0 / (2.0 * SQRT2))


def test_mirror_symmetry():
    # the chain is reflection symmetric, so mirrored configurations share weight
    amps = analytic_n3_amplitudes(1.0, 1.7, 2.1)
    assert amps[1] == pytest.approx(amps[4])  # down.down.up vs up.down.down
    assert amps[3] == pytest.approx(amps[6])  # down.up.up vs up.up.down


@pytest.mark.parametrize("c1, c2, b_expected, t_expected", FAMILY_CASES)
def test_solution_family(c1, c2, b_expected, t_expected):
    sol = constant_field_params(c1, c2, 1.0)
    assert sol.b == pytest.approx(b_expected, rel=1e-14)
    assert sol.t_star == pytest.approx(t_expected, rel=1e-14)
    assert constant_field_population(1.0, sol.b, sol.t_star) == pytest.approx(1.0, abs=1e-12)
    assert propagated_population(1.0, sol.b, sol.t_star) == pytest.approx(1.0, abs=1e-12)


def test_solution_family_global_phase():
    sol = constant_field_params(0, 0, 1.0)
    psi = analytic_state(1.0, sol.b, sol.t_star)
    overlap = np.vdot(complete_graph_state(3), psi)
    assert overlap == pytest.approx(-1.0j, abs=1e-12)


def test_solution_family_scales_with_coupling():
    strong = constant_field_params(0, 0, 2.0)
    weak = constant_field_params(0, 0, 1.0)
    assert strong.b == pytest.approx(2.0 * weak.b)
    assert strong.t_star == pytest.approx(weak.t_star / 2.0)


def test_constant_field_params_validation():
    with pytest.raises(ValueError):
        constant_field_params(1, 0, 1.0)
    with pytest.raises(ValueError):
        constant_field_params(0, 0, 0.0)
    with pytest.raises(ValueError):
        constant_field_params(0, 0, -1.0)
    for j in (np.nan, np.inf):
        with pytest.raises(ValueError, match="requires a finite j > 0"):
            constant_field_params(0, 0, j)
    # finite couplings whose field or arrival time overflows
    for j in (1e308, 1e-320):
        with pytest.raises(ValueError, match="out of float range"):
            constant_field_params(0, 0, j)


@pytest.mark.parametrize(
    "j, message",
    [
        ("nan", "requires a finite j > 0"),
        ("inf", "requires a finite j > 0"),
        ("1e-320", "c1 = 0, c2 = 0 and j = 1e-320 put the field or arrival time out of "
                   "float range"),
    ],
)
def test_cli_refuses_an_unusable_coupling(j, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["analytic", "--j", j])
    assert result.exit_code == 1
    assert result.output == f"Error: analytic failed: {message}\n"
    assert caught == []


@pytest.mark.parametrize(
    "c1, c2", [(0, 2**1023), (0, 10**400), (-(10**400), 0)], ids=["2^1023", "1e400", "-1e400"]
)
def test_cli_refuses_integers_beyond_float_range(c1, c2):
    # a Python int too large for a float raises OverflowError, not a numpy
    # overflow; both end in the same one-line message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["analytic", f"--c1={c1}", f"--c2={c2}"])
    assert result.exit_code == 1
    assert result.output == (
        f"Error: analytic failed: c1 = {c1}, c2 = {c2} and j = 1.0 put the field or "
        "arrival time out of float range\n"
    )
    assert caught == []


def test_scan_grid_and_maxima():
    sol = constant_field_params(0, 0, 1.0)
    b_grid = sol.b + np.linspace(-0.5, 0.5, 11)
    t_grid = sol.t_star + np.linspace(-0.2, 0.2, 9)
    pops, maxima = scan_constant_field(1.0, b_grid, t_grid)
    assert pops.shape == (11, 9)
    assert np.all(pops >= 0.0) and np.all(pops <= 1.0 + 1e-12)
    assert maxima, "family point should appear as an interior maximum"
    heights = [m[2] for m in maxima]
    assert heights == sorted(heights, reverse=True)
    top_b, top_t, top_pop = maxima[0]
    assert top_b == pytest.approx(sol.b)
    assert top_t == pytest.approx(sol.t_star)
    assert top_pop == pytest.approx(1.0, abs=1e-12)


def loop_maxima(b_grid, t_grid, pops):
    """Interior local maxima, one 3 x 3 patch at a time, ranked by
    population to 12 decimals, then by grid position."""
    maxima = []
    for i in range(1, b_grid.size - 1):
        for k in range(1, t_grid.size - 1):
            patch = pops[i - 1 : i + 2, k - 1 : k + 2]
            if pops[i, k] == np.max(patch) and pops[i, k] > np.min(patch):
                maxima.append((float(b_grid[i]), float(t_grid[k]), float(pops[i, k])))
    maxima.sort(key=lambda row: -round(row[2], 12))
    return maxima


def test_scan_maxima_match_the_patch_loop():
    # the default CLI grid; a repeated arrival time, whose two copies tie
    # as maxima; and a t = 0 grid, flat in b, which has none
    sol = constant_field_params(0, 0, 1.0)
    t_near = sol.t_star + np.array([-0.1, 0.0, 0.0, 0.1])
    grids = (
        (np.linspace(-10.0, 10.0, 81), np.linspace(0.01, 3.5, 121), 106),
        (sol.b + np.linspace(-0.5, 0.5, 5), t_near, 2),
        (np.linspace(-1.0, 1.0, 5), np.zeros(4), 0),
    )
    for b_grid, t_grid, count in grids:
        pops, maxima = scan_constant_field(1.0, b_grid, t_grid)
        assert maxima == loop_maxima(b_grid, t_grid, pops)
        assert len(maxima) == count


def test_scan_ranks_plus_minus_field_pairs_by_grid_position():
    # the population is even in B on a grid symmetric about 0, up to the
    # last bits; each +B / -B pair of maxima ranks -B first
    b_grid, t_grid = np.linspace(-10.0, 10.0, 81), np.linspace(0.01, 3.5, 121)
    pops, maxima = scan_constant_field(1.0, b_grid, t_grid)
    pairs = 0
    for (b1, t1, p1), (b2, t2, p2) in zip(maxima, maxima[1:]):
        if b1 == -b2 != 0.0 and t1 == t2:
            assert b1 < b2 and p1 == pytest.approx(p2, rel=0, abs=1e-14)
            pairs += 1
    assert pairs >= 20
    # so does a +-1 ulp change of every population
    rng = np.random.default_rng(7)
    for _ in range(3):
        nudged = np.where(rng.random(pops.shape) < 0.5, np.nextafter(pops, 2.0), pops)
        nudged = np.where(rng.random(pops.shape) < 0.5, np.nextafter(nudged, -1.0), nudged)
        assert local_maxima(nudged) == local_maxima(pops)
    assert [(b, t) for b, t, _ in maxima] == [(b_grid[i], t_grid[k]) for i, k in local_maxima(pops)]


@pytest.mark.parametrize("shape", [(2, 1), (1, 5), (2, 7), (7, 2)])
def test_scan_without_an_interior_has_no_maxima(shape):
    b_grid, t_grid = np.linspace(-2.0, 2.0, shape[0]), np.linspace(0.1, 2.0, shape[1])
    pops, maxima = scan_constant_field(1.0, b_grid, t_grid)
    assert pops.shape == shape
    assert maxima == []


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        scan_constant_field(1.0, np.array([]), np.array([1.0]))


def test_write_scan_csv(tmp_path):
    """The scan grid is written by the CLI's CSV writer as b-major repr cells."""
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["analytic", "--config", str(config), "--scan", "--b-points", "2", "--t-points", "1"],
    )
    assert result.exit_code == 0, result.output
    b_grid = np.array([-10.0, 10.0])
    t_grid = np.array([0.01])
    pops, _ = scan_constant_field(1.0, b_grid, t_grid)
    with open(tmp_path / "analytic_grid.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["b", "t", "population"]
    assert len(rows) == 3
    assert float(rows[1][2]) == pops[0, 0]
