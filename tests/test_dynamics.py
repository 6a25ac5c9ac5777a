"""Master equation, no-jump traces, disorder sampling, and ensemble averaging.

Two independent oracles pin the Lindblad integrator: a dense matrix
exponential of the vectorized generator (built with explicit jump
operators), and closed-form pure-decay populations from an initial
configuration the Hamiltonian cannot move. The exact no-jump trace is
checked against that integrator, against the dense exponential slice by
slice, and against the closed-system trace.
"""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingraph.chain import (
    SPACING,
    ChainGeometry,
    IdealModel,
    RydbergModel,
    assemble_system,
    build_control_hz,
)
import spingraph.dynamics as dynamics
import spingraph.grape as grape
import spingraph.operators as operators
from spingraph.config import ExperimentConfig, build_jump_channels
from spingraph.dynamics import (
    EnsembleResult,
    JumpChannels,
    NoiseSpec,
    closed_system_trace,
    ensemble_average,
    evolve_master,
    open_system_trace,
    sample_field_noise,
    sample_geometry_noise,
)
from spingraph.grape import ControlSchedule, load_result, schedule_from_record
from spingraph.operators import (
    EMISSION_BASIS,
    MAX_TRACE_STACK,
    SPIN_BASIS,
    basis_state,
    embed_local_operator,
    evolve_unitary,
)
from spingraph.targets import complete_graph_state, plus_product_state

from kron_reference import (
    DEFAULT_JUMPS,
    embed_spin_state,
    kron_control_hz,
    kron_drift,
    level_projector,
    level_transition,
)

TWO_PI = 2.0 * np.pi

SCHEDULES = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "schedules"


def dense_expm(mat: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential (oracle helper)."""
    norm = np.linalg.norm(mat, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    scaled = mat / (2.0**squarings)
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ scaled / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def vectorized_lindbladian(h: np.ndarray, cs: list[np.ndarray]) -> np.ndarray:
    """Row-major vec: L(rho) -> M @ vec(rho) with vec(A X B) = (A kron B^T) vec(X)."""
    dim = h.shape[0]
    eye = np.eye(dim)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in cs:
        cdc = c.conj().T @ c
        m += np.kron(c, c.conj())
        m -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return m


def site_jump(dst: int, src: int, site: int, n_sites: int, d: int) -> np.ndarray:
    local = np.zeros((d, d))
    local[dst, src] = 1.0
    op = np.eye(1)
    for s in range(n_sites):
        op = np.kron(op, local if s == site else np.eye(d))
    return op


def test_jump_channels_validation():
    with pytest.raises(ValueError):
        JumpChannels(channels=(("up", "g", -1.0),))
    with pytest.raises(ValueError):
        JumpChannels(channels=(("up", "r", 0.1),))
    JumpChannels(channels=(("up", "g", 0.1),))


def test_default_jump_rates():
    assert DEFAULT_JUMPS.channels == (
        ("up", "g", 1.0 / 569.0),
        ("down", "g", 1.0 / 1100.0),
    )
    # the channels every command builds without a config
    assert build_jump_channels(ExperimentConfig()) == DEFAULT_JUMPS


def test_master_matches_dense_expm_oracle():
    # one slice, constant field: the result is exactly expm(L t) rho0
    model = IdealModel(2)
    b = 0.8
    t = 0.02
    schedule = ControlSchedule(t_total=t, amplitudes=np.array([b]))
    jumps = JumpChannels(channels=(("up", "g", 0.9), ("down", "g", 0.4)))
    psi0 = embed_spin_state(plus_product_state(2), 2, EMISSION_BASIS)
    rho0 = np.outer(psi0, psi0.conj())
    result = evolve_master(model, schedule, jumps, rho0)

    h = assemble_system(model, EMISSION_BASIS) + b * build_control_hz(2, EMISSION_BASIS)
    cs = []
    for site in range(2):
        cs.append(np.sqrt(0.9) * site_jump(2, 0, site, 2, 3))  # up -> g
        cs.append(np.sqrt(0.4) * site_jump(2, 1, site, 2, 3))  # down -> g
    propagator = dense_expm(vectorized_lindbladian(h, cs) * t)
    rho_expected = (propagator @ rho0.reshape(-1)).reshape(9, 9)
    assert np.max(np.abs(result.rho_final - rho_expected)) < 1e-10


def test_master_pure_decay_populations():
    # |up, up> is dark for the exchange and the field, so populations
    # follow the two-level decay formulas exactly
    gamma = 0.35
    t = 1.2
    model = IdealModel(2)
    schedule = ControlSchedule(t_total=t, amplitudes=np.array([1.5, -0.5, 2.0]))
    jumps = JumpChannels(channels=(("up", "g", gamma),))
    uu = basis_state(["up", "up"], EMISSION_BASIS)
    rho0 = np.outer(uu, uu.conj())
    result = evolve_master(model, schedule, jumps, rho0, target=uu)
    p = np.exp(-gamma * t)
    diag = np.real(np.diag(result.rho_final))
    assert abs(result.populations[-1] - p * p) < 1e-9
    assert abs(diag[EMISSION_BASIS.index("g") * 3 + 0] - (1 - p) * p) < 1e-9
    assert abs(diag[0 * 3 + EMISSION_BASIS.index("g")] - p * (1 - p)) < 1e-9
    assert abs(diag[8] - (1 - p) ** 2) < 1e-9


def test_master_zero_rate_matches_unitary():
    model = RydbergModel(ChainGeometry.regular(2))
    rng = np.random.default_rng(9)
    schedule = ControlSchedule(t_total=0.1, amplitudes=rng.uniform(-5, 5, 4))
    jumps = JumpChannels(channels=(("up", "g", 0.0), ("down", "g", 0.0)))
    psi0_spin = plus_product_state(2)
    target_spin = complete_graph_state(2)
    psi0 = embed_spin_state(psi0_spin, 2, EMISSION_BASIS)
    rho0 = np.outer(psi0, psi0.conj())
    target = embed_spin_state(target_spin, 2, EMISSION_BASIS)
    open_run = evolve_master(model, schedule, jumps, rho0, target=target)
    closed = closed_system_trace(model, schedule, psi0_spin, target_spin)
    assert np.max(np.abs(open_run.populations - closed)) < 1e-8


def test_master_state_checks():
    model = IdealModel(2)
    schedule = ControlSchedule(t_total=0.05, amplitudes=np.array([1.0]))
    psi0 = embed_spin_state(plus_product_state(2), 2, EMISSION_BASIS)
    rho0 = np.outer(psi0, psi0.conj())
    target = embed_spin_state(complete_graph_state(2), 2, EMISSION_BASIS)
    result = evolve_master(model, schedule, DEFAULT_JUMPS, rho0, target=target)
    rho = result.rho_final
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10
    assert np.all(result.populations >= 0.0) and np.all(result.populations <= 1.0)

    with pytest.raises(ValueError):
        evolve_master(model, schedule, DEFAULT_JUMPS, 2.0 * rho0, target=target)
    bad = rho0.copy()
    bad[0, 1] += 1.0
    with pytest.raises(ValueError):
        evolve_master(model, schedule, DEFAULT_JUMPS, bad, target=target)
    with pytest.raises(ValueError):
        evolve_master(model, schedule, DEFAULT_JUMPS, rho0[:3, :3], target=target)


def test_closed_system_trace_boundaries():
    model = IdealModel(3)
    schedule = ControlSchedule(t_total=2.3, amplitudes=np.zeros(10))
    psi0 = plus_product_state(3)
    target = complete_graph_state(3)
    pops = closed_system_trace(model, schedule, psi0, target)
    assert pops.shape == (11,)
    assert pops[0] == pytest.approx(abs(np.vdot(target, psi0)) ** 2)


def test_sample_geometry_noise_zero_sigma_is_identity():
    geo = ChainGeometry.regular(3)
    spec = NoiseSpec(position_sigma=(0.0, 0.0, 0.0))
    assert sample_geometry_noise(geo, spec, 0) is geo


def test_sample_geometry_noise_deterministic_and_seeded():
    geo = ChainGeometry.regular(3)
    spec = NoiseSpec(position_sigma=(193.5, 193.5, 1242.9), base_seed=7)
    a = sample_geometry_noise(geo, spec, 2)
    b = sample_geometry_noise(geo, spec, 2)
    c = sample_geometry_noise(geo, spec, 3)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    # displacement scale is sub-um for nm sigmas
    assert np.max(np.abs(a.positions - geo.positions)) < 5.0


def test_sample_geometry_noise_frame_axes():
    # chain along z: the first sigma component displaces along z only
    geo = ChainGeometry.regular(3)
    along = sample_geometry_noise(geo, NoiseSpec(position_sigma=(500.0, 0.0, 0.0)), 1)
    delta = along.positions - geo.positions
    assert np.max(np.abs(delta[:, :2])) == 0.0
    assert np.max(np.abs(delta[:, 2])) > 0.0
    # the remaining two components displace transversally only
    across = sample_geometry_noise(geo, NoiseSpec(position_sigma=(0.0, 500.0, 500.0)), 1)
    delta = across.positions - geo.positions
    assert np.max(np.abs(delta[:, 2])) < 1e-12
    assert np.max(np.abs(delta[:, :2])) > 0.0


def test_sample_field_noise():
    schedule = ControlSchedule(t_total=1.0, amplitudes=np.zeros(2000))
    assert sample_field_noise(schedule, 0.0, 3) is schedule
    noisy = sample_field_noise(schedule, TWO_PI * 0.5, 3)
    again = sample_field_noise(schedule, TWO_PI * 0.5, 3)
    assert np.array_equal(noisy.amplitudes, again.amplitudes)
    assert abs(np.std(noisy.amplitudes) - TWO_PI * 0.5) / (TWO_PI * 0.5) < 0.05
    assert abs(np.mean(noisy.amplitudes)) < 0.2
    with pytest.raises(ValueError):
        sample_field_noise(schedule, -1.0, 3)


def test_ensemble_geometry_noise_requires_rydberg():
    schedule = ControlSchedule(t_total=1.0, amplitudes=np.zeros(4))
    spec = NoiseSpec(position_sigma=(100.0, 0.0, 0.0), samples=2)
    with pytest.raises(ValueError):
        ensemble_average(
            IdealModel(2), schedule, spec, plus_product_state(2), complete_graph_state(2)
        )


def test_ensemble_statistics_and_determinism():
    model = RydbergModel(ChainGeometry.regular(2))
    rng = np.random.default_rng(4)
    schedule = ControlSchedule(t_total=0.1, amplitudes=rng.uniform(-3, 3, 5))
    spec = NoiseSpec(position_sigma=(193.5, 193.5, 1242.9), samples=8, base_seed=0)
    psi0, target = plus_product_state(2), complete_graph_state(2)
    a = ensemble_average(model, schedule, spec, psi0, target)
    b = ensemble_average(model, schedule, spec, psi0, target)
    assert isinstance(a, EnsembleResult)
    assert np.array_equal(a.mean_trace, b.mean_trace)
    assert np.array_equal(a.sample_finals, b.sample_finals)
    assert a.sample_finals.shape == (8,)
    assert np.all(a.min_trace <= a.mean_trace + 1e-15)
    assert np.all(a.mean_trace <= a.max_trace + 1e-15)
    assert a.mean_final == pytest.approx(np.mean(a.sample_finals))
    assert a.std_final == pytest.approx(np.std(a.sample_finals))
    # different base seed draws a different ensemble
    c = ensemble_average(
        model, schedule, replace_spec(spec, base_seed=99), psi0, target
    )
    assert not np.array_equal(a.sample_finals, c.sample_finals)


def replace_spec(spec: NoiseSpec, **kw) -> NoiseSpec:
    from dataclasses import replace

    return replace(spec, **kw)


def test_field_noise_only_ensemble_mean_degrades_gently():
    # zero-mean field noise perturbs the population quadratically, so the
    # ensemble mean sits close to (and below) the noiseless value
    model = RydbergModel(ChainGeometry.regular(2))
    schedule = ControlSchedule(t_total=0.141, amplitudes=np.full(100, 2.0))
    psi0, target = plus_product_state(2), complete_graph_state(2)
    noiseless = closed_system_trace(model, schedule, psi0, target)[-1]
    spec = NoiseSpec(field_sigma=TWO_PI * 0.5, samples=20, base_seed=0)
    res = ensemble_average(model, schedule, spec, psi0, target)
    assert abs(res.mean_final - noiseless) < 0.05


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(position_sigma=(-1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        NoiseSpec(field_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(samples=0)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["ideal", "rydberg"])
def test_closed_system_trace_matches_slice_product(n_sites, kind):
    # oracle: diagonalize every full slice Hamiltonian H0 + B_k Hz and
    # step slice by slice, without using [H0, Hz] = 0
    rng = np.random.default_rng(10 * n_sites + (kind == "rydberg"))
    if kind == "ideal":
        model = IdealModel(n_sites, coupling=float(rng.uniform(0.5, 2.0)))
        t_total, scale = float(rng.uniform(0.5, 3.0)), 3.0
    else:
        model = RydbergModel(ChainGeometry.regular(n_sites))
        t_total, scale = float(rng.uniform(0.05, 0.25)), 40.0
    schedule = ControlSchedule(
        t_total=t_total, amplitudes=rng.uniform(-scale, scale, int(rng.integers(3, 13)))
    )
    psi0, target = plus_product_state(n_sites), complete_graph_state(n_sites)
    h0 = assemble_system(model)
    hz = build_control_hz(n_sites)
    psi = psi0.astype(complex)
    oracle = [abs(np.vdot(target, psi)) ** 2]
    for b in schedule.amplitudes:
        psi = evolve_unitary(h0 + b * hz, schedule.dt, psi)
        oracle.append(abs(np.vdot(target, psi)) ** 2)
    pops = closed_system_trace(model, schedule, psi0, target)
    assert np.max(np.abs(pops - np.array(oracle))) < 1e-10


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_lindblad_jump_terms_match_explicit_operators(n_sites):
    # each index-selected gain block is L rho L^dag, and the decay vector
    # is the diagonal of sum_L L^dag L, with L = |dst><src| at one site
    basis = EMISSION_BASIS
    jumps = JumpChannels(channels=(("up", "g", 0.3), ("down", "g", 0.0), ("down", "up", 0.7)))
    dim = basis.dim**n_sites
    rng = np.random.default_rng(n_sites)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rhs = dynamics._LindbladRhs(np.zeros((dim, dim)), np.zeros(dim), jumps, n_sites, basis)
    expected = []
    decay = np.zeros((dim, dim), dtype=complex)
    for site in range(n_sites):
        for src, dst, rate in jumps.channels:
            if rate == 0.0:
                continue
            jump = embed_local_operator(level_transition(dst, src, basis), site, n_sites, basis)
            expected.append((rate, jump @ rho @ jump.conj().T))
            decay += rate * (jump.conj().T @ jump)
    assert len(rhs.gains) == len(expected)
    for (rate, src_idx, dst_idx), (expected_rate, block) in zip(rhs.gains, expected):
        gained = np.zeros((dim, dim), dtype=complex)
        gained[np.ix_(dst_idx, dst_idx)] = rho[np.ix_(src_idx, src_idx)]
        assert rate == expected_rate
        assert np.array_equal(gained, block)
    assert np.array_equal(np.diag(rhs.decay).astype(complex), decay)


ENSEMBLE_SPECS = {
    "field": NoiseSpec(field_sigma=TWO_PI * 0.5, samples=6, base_seed=3),
    "position": NoiseSpec(position_sigma=(193.5, 193.5, 1242.9), samples=6, base_seed=3),
    "position+field": NoiseSpec(
        position_sigma=(193.5, 0.0, 0.0), field_sigma=2.0, samples=6, base_seed=3
    ),
}


def sample_runs(model, schedule, spec):
    """(model, schedule) of every sample, each drawn on its own through
    ``sample_geometry_noise`` and ``sample_field_noise``."""
    geometry_noise = any(s > 0 for s in spec.position_sigma)
    for i in range(spec.samples):
        sample_model = model
        if geometry_noise:
            sample_model = RydbergModel(sample_geometry_noise(model.geometry, spec, i))
        seed = spec.base_seed + spec.samples + i
        yield sample_model, sample_field_noise(schedule, spec.field_sigma, seed)


def ensemble_case(n_sites: int, n_slices: int = 12):
    model = RydbergModel(ChainGeometry.regular(n_sites))
    rng = np.random.default_rng(n_sites)
    schedule = ControlSchedule(t_total=0.141, amplitudes=rng.uniform(-20, 20, n_slices))
    return model, schedule, plus_product_state(n_sites), complete_graph_state(n_sites)


def assert_matches_sample_traces(result, traces, tol):
    traces = np.array(traces)
    assert np.max(np.abs(result.sample_finals - traces[:, -1])) < tol
    for got, want in [
        (result.mean_trace, traces.mean(axis=0)),
        (result.min_trace, traces.min(axis=0)),
        (result.max_trace, traces.max(axis=0)),
    ]:
        assert np.max(np.abs(got - want)) < tol


@pytest.mark.parametrize("kind", ENSEMBLE_SPECS)
@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_ensemble_matches_per_sample_closed_traces(n_sites, kind):
    # oracle: one dense-drift closed-system trace per sample; the sector
    # sums only reorder the arithmetic
    spec = ENSEMBLE_SPECS[kind]
    model, schedule, psi0, target = ensemble_case(n_sites)
    traces = [
        closed_system_trace(sample_model, sample_schedule, psi0, target)
        for sample_model, sample_schedule in sample_runs(model, schedule, spec)
    ]
    result = ensemble_average(model, schedule, spec, psi0, target)
    assert_matches_sample_traces(result, traces, 1e-13)


@pytest.mark.parametrize("kind", ENSEMBLE_SPECS)
def test_ensemble_matches_dense_expm_per_sample(kind):
    # oracle: the kron-product H0 + B_k Hz of every sample exponentiated
    # slice by slice, without using [H0, Hz] = 0
    spec = ENSEMBLE_SPECS[kind]
    model, schedule, psi0, target = ensemble_case(3)
    hz = kron_control_hz(3, SPIN_BASIS)
    traces = []
    for sample_model, sample_schedule in sample_runs(model, schedule, spec):
        h0 = kron_drift(sample_model, SPIN_BASIS)
        psi = psi0.copy()
        trace = [abs(np.vdot(target, psi)) ** 2]
        for b in sample_schedule.amplitudes:
            psi = dense_expm(-1j * schedule.dt * (h0 + b * hz)) @ psi
            trace.append(abs(np.vdot(target, psi)) ** 2)
        traces.append(trace)
    result = ensemble_average(model, schedule, spec, psi0, target)
    assert_matches_sample_traces(result, traces, 1e-10)


@pytest.mark.parametrize("n_slices", [15, 100])
@pytest.mark.parametrize("n_sites", [3, 4])
def test_boundary_ladder_traces_match_dense_expm(n_sites, n_slices):
    # oracle independent of the baby-step giant-step grid: the kron-product
    # H0 + B_k Hz exponentiated slice by slice, without [H0, Hz] = 0; 16
    # boundaries fill a 4 x 4 ladder, 101 a 10 x 11 one cut at 101. The
    # closed and no-jump traces, and a position and field ensemble per sample
    model, schedule, psi0, target = ensemble_case(n_sites, n_slices)
    gamma_up, gamma_down = 0.9, 0.25
    jumps = JumpChannels(channels=(("up", "g", gamma_up), ("down", "g", gamma_down)))
    decay = sum(
        np.diag(embed_local_operator(gamma * level_projector(level, SPIN_BASIS),
                                     site, n_sites, SPIN_BASIS)).real
        for site in range(n_sites)
        for level, gamma in (("up", gamma_up), ("down", gamma_down))
    )
    hz = kron_control_hz(n_sites, SPIN_BASIS)

    def dense_traces(sample_model, sample_schedule):
        h0 = kron_drift(sample_model, SPIN_BASIS)
        psi, closed, opened = psi0.astype(complex), [], []
        for k in range(sample_schedule.n_slices + 1):
            if k:
                b = sample_schedule.amplitudes[k - 1]
                psi = dense_expm(-1j * sample_schedule.dt * (h0 + b * hz)) @ psi
            damped = np.exp(-0.5 * sample_schedule.boundary_times[k] * decay) * psi
            closed.append(abs(np.vdot(target, psi)) ** 2)
            opened.append(abs(np.vdot(target, damped)) ** 2)
        return np.array(closed), np.array(opened)

    closed, opened = dense_traces(model, schedule)
    np.testing.assert_allclose(closed_system_trace(model, schedule, psi0, target), closed,
                               rtol=0, atol=1e-13)
    for got, want in zip(open_system_trace(model, schedule, jumps, psi0, target),
                         (closed, opened)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    spec = replace_spec(ENSEMBLE_SPECS["position+field"], samples=5)
    traces = [dense_traces(*run)[0] for run in sample_runs(model, schedule, spec)]
    result = ensemble_average(model, schedule, spec, psi0, target)
    assert_matches_sample_traces(result, traces, 1e-13)


def spy_eigh(monkeypatch) -> list[tuple[int, int]]:
    """(dimension, stack depth) of every ``np.linalg.eigh`` call from here on."""
    calls = []
    original = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append((a.shape[-1], math.prod(a.shape[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


@pytest.mark.parametrize("kind", ENSEMBLE_SPECS)
@pytest.mark.parametrize("n_sites", [3, 6])
def test_ensemble_decomposes_each_sector_block_once_per_geometry(n_sites, kind, monkeypatch):
    # field noise leaves the drift alone: one decomposed matrix per
    # magnetisation sector for the whole ensemble; geometry noise: one per
    # sector and sample, however the samples are stacked into calls. No
    # eigh sees the 2^N-dimensional drift.
    spec = ENSEMBLE_SPECS[kind]
    model, schedule, psi0, target = ensemble_case(n_sites)
    grape._stage_kernels.cache_clear()
    calls = spy_eigh(monkeypatch)
    ensemble_average(model, schedule, spec, psi0, target)
    dims = [dim for dim, depth in calls for _ in range(depth)]
    sectors = [math.comb(n_sites, k) for k in range(n_sites + 1)]
    geometries = 1 if kind == "field" else spec.samples
    assert sorted(dims) == sorted(sectors * geometries)
    assert max(dims) < 2**n_sites
    # a repeat field-only ensemble takes the model's memoised sectors;
    # geometry samples are decomposed afresh
    first = list(calls)
    calls.clear()
    ensemble_average(model, schedule, spec, psi0, target)
    assert calls == ([] if kind == "field" else first)


def test_position_ensemble_stacks_its_samples_into_few_eigh_calls(monkeypatch):
    # N=6, 50 samples, 100 slices: one stacked eigh per sector size and
    # chunk; sectors m and 6 - m share a size, so 4 sizes for 7 sectors
    spec = replace_spec(ENSEMBLE_SPECS["position"], samples=50)
    model, schedule, psi0, target = ensemble_case(6, n_slices=100)
    calls = spy_eigh(monkeypatch)
    ensemble_average(model, schedule, spec, psi0, target)
    chunk = dynamics.CHUNK_ELEMENTS // (101 * math.comb(6, 3))
    assert chunk >= 4
    assert len(calls) == 4 * math.ceil(50 / chunk)


@pytest.mark.parametrize("kind", ENSEMBLE_SPECS)
def test_ensemble_memory_stays_flat(kind):
    # tracemalloc peak of one 50-sample, 100-slice ensemble at N=6: the
    # samples go in chunks of dynamics.CHUNK_ELEMENTS / (boundaries x
    # largest block), so no (samples x k x k) eigenvector stack and no
    # (samples x boundaries x sectors) phase tensor of the whole ensemble
    # is held, and each chunk's returns come from the slice-boundary
    # ladder, 10 giant-step and 11 baby-step phase rows per block, never a
    # (boundaries x k) tensor. Measured: 324 KB with position noise, 365 KB
    # with both kinds, 235 KB with field noise (485, 527 and 234 KB with
    # one phase row per boundary)
    spec = replace_spec(ENSEMBLE_SPECS[kind], samples=50)
    model, schedule, psi0, target = ensemble_case(6, n_slices=100)
    args = (model, schedule, spec, psi0, target)
    ensemble_average(*args)  # memoised index tables are built once, outside the peak
    tracemalloc.start()
    try:
        ensemble_average(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400_000


@pytest.mark.parametrize("kind", ENSEMBLE_SPECS)
@pytest.mark.parametrize("samples", [1, 4, 5, 11])
def test_chunked_ensemble_matches_per_sample_closed_traces(samples, kind):
    # N=6, 100 slices: four samples fill one chunk, so 1, 4, 5 and 11 give
    # one partial chunk, exactly one chunk, and a partial last chunk
    spec = replace_spec(ENSEMBLE_SPECS[kind], samples=samples)
    model, schedule, psi0, target = ensemble_case(6, n_slices=100)
    assert dynamics.CHUNK_ELEMENTS // (101 * math.comb(6, 3)) == 4
    traces = [
        closed_system_trace(sample_model, sample_schedule, psi0, target)
        for sample_model, sample_schedule in sample_runs(model, schedule, spec)
    ]
    result = ensemble_average(model, schedule, spec, psi0, target)
    assert_matches_sample_traces(result, traces, 1e-13)


@pytest.mark.parametrize("samples", [1, 4, 5, 11])
def test_stacked_draws_equal_the_per_sample_samplers_bit_for_bit(samples):
    # the ensemble's (samples, N, 3) positions and (samples, n + 1) field
    # areas against one sample_geometry_noise / sample_field_noise per
    # sample, and against the documented per-sample draws written out:
    # default_rng(base_seed + i) for positions, resolved in the chain frame
    # (um = nm / 1000), and default_rng(seed) per slice offset, summed
    model, schedule, _, _ = ensemble_case(6, n_slices=100)
    geometry = model.geometry.with_delta_r(0.013)
    spec = NoiseSpec(
        position_sigma=(193.5, 193.5, 1242.9), field_sigma=2.0, samples=samples, base_seed=7
    )
    sigma_um = np.array(spec.position_sigma) / 1000.0
    frame = dynamics._chain_frame(geometry.positions)
    written_out = [
        geometry.positions
        + np.random.default_rng(7 + i).normal(0.0, 1.0, size=(6, 3)) * sigma_um @ frame
        for i in range(samples)
    ]
    positions = dynamics._geometry_draws(geometry, spec, range(samples))
    assert np.array_equal(positions, written_out)
    assert np.array_equal(
        positions, [sample_geometry_noise(geometry, spec, i).positions for i in range(samples)]
    )
    seeds = [spec.base_seed + samples + i for i in range(samples)]
    offsets = [np.random.default_rng(s).normal(0.0, 2.0, schedule.n_slices) for s in seeds]
    written_out = [
        schedule.dt * np.concatenate(([0.0], np.cumsum(schedule.amplitudes + o))) for o in offsets
    ]
    areas = dynamics._field_draws(schedule, spec.field_sigma, seeds)
    assert np.array_equal(areas, written_out)
    assert np.array_equal(
        areas, [sample_field_noise(schedule, spec.field_sigma, s).boundary_areas for s in seeds]
    )


def test_ensemble_refuses_a_sample_geometry_as_the_sampler_does():
    # atoms (1, 2) start 1.5 nm apart and move along the chain by 1 nm
    # sigma: the first sample that brings them within 1 nm is refused,
    # naming the pair, with the message sample_geometry_noise gives
    positions = np.zeros((3, 3))
    positions[:, 2] = [0.0, SPACING, SPACING + 1.5e-3]
    model = RydbergModel(ChainGeometry(positions))
    spec = NoiseSpec(position_sigma=(1.0, 0.0, 0.0), samples=20)
    schedule = ControlSchedule(t_total=0.1, amplitudes=np.ones(4))
    messages = []
    for i in range(spec.samples):
        try:
            sample_geometry_noise(model.geometry, spec, i)
        except ValueError as error:
            messages.append(str(error))
    assert messages and messages[0] == "atoms (1, 2) closer than 1 nm"
    psi0, target = plus_product_state(3), complete_graph_state(3)
    with pytest.raises(ValueError, match=re.escape(messages[0])):
        ensemble_average(model, schedule, spec, psi0, target)


def test_ensemble_beyond_the_trace_budget_is_refused_before_any_draw(monkeypatch):
    # every noise draw of an ensemble, geometry or field, goes through one
    # stacked draw of per-sample generators
    drawn = []
    monkeypatch.setattr(dynamics, "_normal_draws", lambda *a: drawn.append(a))
    model, schedule, psi0, target = ensemble_case(3, n_slices=99)
    samples = MAX_TRACE_STACK // 100 + 1
    spec = NoiseSpec(position_sigma=(1.0, 0.0, 0.0), field_sigma=1.0, samples=samples)
    with pytest.raises(ValueError, match="slice boundaries exceed the ensemble budget"):
        ensemble_average(model, schedule, spec, psi0, target)
    assert drawn == []


def test_a_position_ensemble_within_its_budget_is_not_refused_by_its_drifts(monkeypatch):
    # the budget at 5000 entries: 40 samples x 10 boundaries fit it, and so
    # does each sample's 2^7-entry drift diagonal, though the 40 together
    # (5120 entries) would not; the ensemble's trace stack is its budget
    monkeypatch.setattr(operators, "MAX_TRACE_STACK", 5000)
    spec = replace_spec(ENSEMBLE_SPECS["position"], samples=40)
    model, schedule, psi0, target = ensemble_case(7, n_slices=9)
    result = ensemble_average(model, schedule, spec, psi0, target)
    assert result.sample_finals.shape == (40,)
    assert np.all((result.sample_finals >= 0.0) & (result.sample_finals <= 1.0 + 1e-12))


def scaled_default_jumps(scale: float) -> JumpChannels:
    return JumpChannels(
        channels=tuple((src, dst, scale * rate) for src, dst, rate in DEFAULT_JUMPS.channels)
    )


def random_rydberg_schedule(rng: np.random.Generator, n_slices: int) -> ControlSchedule:
    return ControlSchedule(
        t_total=float(rng.uniform(0.1, 0.25)), amplitudes=rng.uniform(-40.0, 40.0, n_slices)
    )


@pytest.mark.parametrize("rate_scale", [1.0, 100.0])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_open_system_trace_matches_rk4_master(n_sites, rate_scale):
    # oracle: the 3^N Lindblad equation integrated by RK4 on the emission basis
    rng = np.random.default_rng(20 + n_sites)
    model = RydbergModel(ChainGeometry.regular(n_sites))
    schedule = random_rydberg_schedule(rng, 10)
    jumps = scaled_default_jumps(rate_scale)
    psi0, target = plus_product_state(n_sites), complete_graph_state(n_sites)
    closed, opened = open_system_trace(model, schedule, jumps, psi0, target)
    psi0_emission = embed_spin_state(psi0, n_sites, EMISSION_BASIS)
    master = evolve_master(
        model,
        schedule,
        jumps,
        np.outer(psi0_emission, psi0_emission.conj()),
        target=embed_spin_state(target, n_sites, EMISSION_BASIS),
    )
    assert np.max(np.abs(opened - master.populations)) < 1e-6
    # the decay loss is ten times the tolerance or more, so the match resolves it
    assert np.max(closed - opened) > 1e-5


def rk4_gaps(name: str) -> np.ndarray:
    """|no-jump - RK4| graph-state population at every slice boundary of
    a checked-in benchmark schedule, with the two emission channels."""
    record = load_result(SCHEDULES / name)
    n = record["N"]
    model, schedule = RydbergModel(ChainGeometry.regular(n)), schedule_from_record(record)
    psi0, target = plus_product_state(n), complete_graph_state(n)
    _, opened = open_system_trace(model, schedule, DEFAULT_JUMPS, psi0, target)
    psi0_emission = embed_spin_state(psi0, n, EMISSION_BASIS)
    master = evolve_master(
        model,
        schedule,
        DEFAULT_JUMPS,
        np.outer(psi0_emission, psi0_emission.conj()),
        target=embed_spin_state(target, n, EMISSION_BASIS),
    )
    return np.abs(opened - master.populations)


@pytest.mark.parametrize("name", ["rydberg_n3.json", "rydberg_n4.json", "protocol_n4.json"])
def test_readme_rk4_agreement_on_benchmark_schedules(name):
    # README Known limits: 1.1e-8 in the final population, 5.3e-8 at every
    # boundary; the N=5 schedule (about 6 s of RK4) is measured once, with
    # the command the README gives
    gaps = rk4_gaps(name)
    assert gaps[-1] <= 1.1e-8
    assert np.max(gaps) <= 5.3e-8


def test_open_system_trace_matches_dense_lindblad_oracle():
    # oracle: the exact exponential of each slice's Liouvillian on the
    # 9-level emission basis, with explicit jump operators
    n_sites, basis = 2, EMISSION_BASIS
    model = RydbergModel(ChainGeometry.regular(n_sites))
    schedule = random_rydberg_schedule(np.random.default_rng(31), 8)
    jumps = scaled_default_jumps(100.0)
    h0 = assemble_system(model, basis)
    hz = build_control_hz(n_sites, basis)
    cs = [
        np.sqrt(rate) * site_jump(basis.index(dst), basis.index(src), site, n_sites, basis.dim)
        for site in range(n_sites)
        for src, dst, rate in jumps.channels
    ]
    psi0, target = plus_product_state(n_sites), complete_graph_state(n_sites)
    psi0_emission = embed_spin_state(psi0, n_sites, basis)
    target_emission = embed_spin_state(target, n_sites, basis)
    dim = basis.dim**n_sites
    rho = np.outer(psi0_emission, psi0_emission.conj()).reshape(-1)
    oracle = []
    for b in [None, *schedule.amplitudes]:
        if b is not None:
            rho = dense_expm(vectorized_lindbladian(h0 + b * hz, cs) * schedule.dt) @ rho
        oracle.append(np.real(np.vdot(target_emission, rho.reshape(dim, dim) @ target_emission)))
    _, opened = open_system_trace(model, schedule, jumps, psi0, target)
    assert np.max(np.abs(opened - np.array(oracle))) < 1e-10


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["ideal", "rydberg"])
def test_open_system_trace_without_decay_is_the_closed_trace(n_sites, kind):
    rng = np.random.default_rng(40 + n_sites)
    if kind == "ideal":
        model = IdealModel(n_sites)
        schedule = ControlSchedule(t_total=2.3, amplitudes=rng.uniform(-3.0, 3.0, 7))
    else:
        model = RydbergModel(ChainGeometry.regular(n_sites))
        schedule = random_rydberg_schedule(rng, 7)
    psi0, target = plus_product_state(n_sites), complete_graph_state(n_sites)
    closed, opened = open_system_trace(
        model, schedule, scaled_default_jumps(0.0), psi0, target
    )
    assert np.array_equal(closed, closed_system_trace(model, schedule, psi0, target))
    assert np.max(np.abs(opened - closed)) < 1e-14


schedule_strategy = st.builds(
    ControlSchedule,
    t_total=st.floats(0.01, 0.3),
    amplitudes=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12).map(np.array),
)


@settings(max_examples=40, deadline=None)
@given(n_sites=st.integers(2, 4), schedule=schedule_strategy, gamma=st.floats(0.0, 30.0))
def test_open_trace_under_one_decay_rate_is_the_damped_closed_trace(n_sites, schedule, gamma):
    # every configuration decays at N gamma, so open = exp(-N gamma t) closed <= closed
    model = RydbergModel(ChainGeometry.regular(n_sites))
    jumps = JumpChannels(channels=(("up", "g", gamma), ("down", "g", gamma)))
    closed, opened = open_system_trace(
        model, schedule, jumps, plus_product_state(n_sites), complete_graph_state(n_sites)
    )
    times = schedule.dt * np.arange(schedule.n_slices + 1)
    np.testing.assert_allclose(
        opened, np.exp(-n_sites * gamma * times) * closed, rtol=1e-9, atol=1e-15
    )
    assert np.all(opened <= closed + 1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(2, 4),
    schedule=schedule_strategy,
    gamma_up=st.floats(0.0, 30.0),
    gamma_down=st.floats(0.0, 30.0),
)
def test_open_trace_stays_below_the_surviving_spin_population(
    n_sites, schedule, gamma_up, gamma_down
):
    # with unequal rates the open trace can rise above the closed one where
    # the closed overlap cancels between magnetization sectors, so the bound
    # is the population left in the spin levels: from |+>^N every site
    # survives with probability (exp(-gamma_up t) + exp(-gamma_down t)) / 2
    model = RydbergModel(ChainGeometry.regular(n_sites))
    jumps = JumpChannels(channels=(("up", "g", gamma_up), ("down", "g", gamma_down)))
    closed, opened = open_system_trace(
        model, schedule, jumps, plus_product_state(n_sites), complete_graph_state(n_sites)
    )
    times = schedule.dt * np.arange(schedule.n_slices + 1)
    survival = (0.5 * (np.exp(-gamma_up * times) + np.exp(-gamma_down * times))) ** n_sites
    assert opened[0] == closed[0]
    assert np.all(opened <= survival * (1.0 + 1e-12))


@pytest.mark.parametrize(
    "channel", [("up", "down", 0.1), ("g", "up", 0.1), ("down", "down", 0.0)]
)
def test_open_system_trace_refuses_channels_inside_the_spin_block(channel):
    model = RydbergModel(ChainGeometry.regular(2))
    schedule = ControlSchedule(t_total=0.1, amplitudes=np.ones(3))
    jumps = JumpChannels(channels=(DEFAULT_JUMPS.channels[0], channel))
    with pytest.raises(ValueError, match=f"channel {channel[0]}->{channel[1]}.*evolve_master"):
        open_system_trace(model, schedule, jumps, plus_product_state(2), complete_graph_state(2))


@pytest.mark.parametrize("kind", ["ideal", "rydberg"])
@pytest.mark.parametrize("n_sites", [5, 6])
def test_open_system_trace_matches_dense_per_configuration_damping(n_sites, kind):
    # oracle: every spin configuration damped by its own summed decay rate,
    # D = sum over sites of the kron-embedded gamma_up |up><up| +
    # gamma_down |down><down|, then the kron-product H0 and field applied to
    # exp(-D t / 2) psi0 densely, boundary by boundary; unequal rates, so D
    # is not a multiple of the identity
    rng = np.random.default_rng(50 + n_sites)
    if kind == "ideal":
        model = IdealModel(n_sites)
        schedule = ControlSchedule(t_total=2.3, amplitudes=rng.uniform(-3.0, 3.0, 8))
    else:
        model = RydbergModel(ChainGeometry.regular(n_sites))
        schedule = random_rydberg_schedule(rng, 8)
    gamma_up, gamma_down = 0.9, 0.25
    jumps = JumpChannels(channels=(("up", "g", gamma_up), ("down", "g", gamma_down)))
    psi0, target = plus_product_state(n_sites), complete_graph_state(n_sites)
    decay = sum(
        embed_local_operator(gamma * level_projector(level, SPIN_BASIS), site, n_sites, SPIN_BASIS)
        for site in range(n_sites)
        for level, gamma in (("up", gamma_up), ("down", gamma_down))
    )
    h0, hz = kron_drift(model, SPIN_BASIS), kron_control_hz(n_sites, SPIN_BASIS)
    oracle = []
    for t, area in zip(schedule.boundary_times, schedule.boundary_areas):
        damped = np.exp(-0.5 * t * np.diag(decay).real) * psi0
        psi = evolve_unitary(h0, t, np.exp(-1j * area * np.diag(hz).real) * damped)
        oracle.append(abs(np.vdot(target, psi)) ** 2)
    _, opened = open_system_trace(model, schedule, jumps, psi0, target)
    np.testing.assert_allclose(opened, oracle, rtol=0, atol=1e-13)
    assert np.ptp(np.diag(decay).real) > 0.0
