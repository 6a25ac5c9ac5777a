"""Chain Hamiltonians: XX exchange, global control term, dipolar couplings.

Interaction strengths, the coefficients and diagonal that
``drift_terms`` returns, are checked against independently computed
scalars (frozen below), matrix structure against literal index
bookkeeping, and every index-built Hamiltonian against the dense
kron-product reference of ``kron_reference``.
"""

import re

import numpy as np
import pytest

import spingraph.chain as chain
from spingraph.chain import (
    C3,
    C6_DOWN,
    C6_UP,
    CONSTANTS_VERSION,
    SPACING,
    ChainGeometry,
    IdealModel,
    RydbergModel,
    assemble_system,
    build_control_hz,
    check_positions,
    drift_terms,
)
from spingraph.operators import EMISSION_BASIS, PROTOCOL_BASIS, SPIN_BASIS, hermitian_sum

from kron_reference import kron_control_hz, kron_drift

TWO_PI = 2.0 * np.pi

# nearest-neighbor scalars at R = 19.3 um on the axis, computed by hand:
# C3 (1-3) / R^3 and -C6 / R^6
V_NN = -15.34731662220421
U_UP_NN = 0.5059308141049417
U_DOWN_NN = -0.4197418579084047


def dipole(geo, i=0, j=1):
    """The flip-flop coefficient of pair (i, j) in the Rydberg drift."""
    terms, coeffs, _ = drift_terms(RydbergModel(geo))
    return dict(zip((tuple(site for site, *_ in term) for term in terms), coeffs))[i, j]


def vdw_shifts(geo):
    """Van der Waals diagonal of a two-atom chain at |up,up> and |down,down>."""
    _, _, diagonal = drift_terms(RydbergModel(geo))
    return diagonal[0], diagonal[3]


def test_constants_frozen():
    assert C3 == TWO_PI * 8780.0
    assert C6_UP == -TWO_PI * 4161550.0
    assert C6_DOWN == TWO_PI * 3452600.0
    assert SPACING == 19.3
    assert CONSTANTS_VERSION == "rydberg-constants-v1"


def test_regular_chain_positions():
    geo = ChainGeometry.regular(4)
    assert geo.n_sites == 4
    assert np.array_equal(geo.positions[:, :2], np.zeros((4, 2)))
    assert np.allclose(geo.positions[:, 2], 19.3 * np.arange(4))


def test_geometry_validation():
    with pytest.raises(ValueError):
        ChainGeometry(positions=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ChainGeometry(positions=np.zeros((2, 3)))  # coincident atoms
    with pytest.raises(ValueError):
        IdealModel(n_sites=3, coupling=0.0)
    with pytest.raises(ValueError):
        IdealModel(n_sites=1)


@pytest.mark.parametrize("coupling", [float("nan"), float("inf"), -float("inf")])
def test_ideal_model_refuses_a_non_finite_coupling(coupling):
    # named at construction, not left to the first eigensolver call
    with pytest.raises(ValueError, match=f"^ideal coupling must be finite, not {coupling}$"):
        IdealModel(n_sites=3, coupling=coupling)


def test_xx_chain_two_sites_structure():
    j = 1.7
    h = assemble_system(IdealModel(2, j))
    # only the flip-flop pair |ud><du| + |du><ud| survives
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = j
    assert np.max(np.abs(h - expected)) < 1e-14


def test_xx_chain_single_excitation_spectrum():
    # one-down sector of the N=3 chain is the 3-site hopping matrix with
    # eigenvalues {0, +-sqrt(2) J}
    j = 1.3
    h = assemble_system(IdealModel(3, j))
    idx = [4, 2, 1]  # down at site 0, 1, 2
    block = h[np.ix_(idx, idx)]
    evals = np.sort(np.linalg.eigvalsh(block))
    assert np.allclose(evals, [-np.sqrt(2) * j, 0.0, np.sqrt(2) * j], atol=1e-12)


def test_control_hz_diagonal():
    hz = build_control_hz(2)
    assert np.array_equal(hz, np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))
    # N=3: eigenvalue (m - k)/2 for m up, k down spins
    hz3 = np.real(np.diag(build_control_hz(3)))
    for index in range(8):
        k = bin(index).count("1")
        assert hz3[index] == (3 - 2 * k) / 2.0


def test_control_hz_ignores_non_spin_levels():
    hz = np.real(np.diag(build_control_hz(1, EMISSION_BASIS)))
    assert np.array_equal(hz, [0.5, -0.5, 0.0])


def test_drift_commutes_with_control():
    for model in (IdealModel(2), IdealModel(4), RydbergModel(ChainGeometry.regular(3))):
        h0 = assemble_system(model)
        hz = build_control_hz(model.n_sites)
        comm = h0 @ hz - hz @ h0
        assert np.max(np.abs(comm)) < 1e-12


def test_dipole_nearest_neighbor_value():
    geo = ChainGeometry.regular(2)
    terms, _, _ = drift_terms(RydbergModel(geo))
    assert terms == (((0, "up", "down"), (1, "down", "up")),)
    assert abs(dipole(geo) - V_NN) < 1e-10
    assert abs(V_NN + TWO_PI * 2.44260130362021) < 1e-10


def test_dipole_cubic_distance_scaling():
    geo1 = ChainGeometry.regular(2)
    geo2 = ChainGeometry(positions=[[0.0, 0.0, 0.0], [0.0, 0.0, 2 * 19.3]])
    assert abs(dipole(geo2) / dipole(geo1) - 0.125) < 1e-12


def test_dipole_magic_angle():
    # pair separation at cos(theta) = 1/sqrt(3) from the axis: coupling vanishes
    c = 1.0 / np.sqrt(3.0)
    s = np.sqrt(1.0 - c**2)
    pos = np.array([[0.0, 0.0, 0.0], [19.3 * s, 0.0, 19.3 * c]])
    geo = ChainGeometry(positions=pos)
    assert abs(dipole(geo)) < 1e-12


def test_dipole_transverse_pair_positive():
    # perpendicular to the axis: 1 - 3 cos^2 = 1, so C3 / R^3 > 0
    pos = np.array([[0.0, 0.0, 0.0], [19.3, 0.0, 0.0]])
    geo = ChainGeometry(positions=pos)
    assert abs(dipole(geo) - TWO_PI * 8780.0 / 19.3**3) < 1e-10


def test_vdw_values_and_signs():
    geo = ChainGeometry.regular(2)
    up, down = vdw_shifts(geo)
    assert abs(up - U_UP_NN) < 1e-10
    assert abs(down - U_DOWN_NN) < 1e-10
    # only like spin levels shift: unlike spins and the g level do not
    _, _, diagonal = drift_terms(RydbergModel(geo), EMISSION_BASIS)
    assert np.array_equal(np.flatnonzero(diagonal), [0, 4])
    assert np.array_equal(diagonal[[0, 4]], [up, down])


def test_delta_r_rescales_couplings():
    geo = ChainGeometry.regular(2)
    shifted = geo.with_delta_r(0.3)
    ratio = dipole(shifted) / dipole(geo)
    assert abs(ratio - (19.3 / 19.6) ** 3) < 1e-12
    ratio6 = vdw_shifts(shifted)[0] / vdw_shifts(geo)[0]
    assert abs(ratio6 - (19.3 / 19.6) ** 6) < 1e-12
    with pytest.raises(ValueError):
        geo.with_delta_r(-19.3)


def test_geometry_refuses_pairs_below_one_nanometre():
    pos = np.zeros((4, 3))
    pos[:, 2] = [0.0, 19.3, 38.6, 19.3 + 5e-4]
    with pytest.raises(ValueError, match=r"atoms \(1, 3\) closer than 1 nm"):
        ChainGeometry(positions=pos)
    pos[3, 2] = 19.3 + 2e-3
    geo = ChainGeometry(positions=pos)
    assert geo.with_delta_r(-5e-4).delta_r == -5e-4
    with pytest.raises(ValueError, match=r"effective distance of atoms \(1, 3\) below 1 nm"):
        geo.with_delta_r(-1.5e-3)
    with pytest.raises(ValueError, match=r"atoms \(0, 1\)"):
        ChainGeometry.regular(3).with_delta_r(-19.3)
    # NaN compares false with every bound, so it is refused on its own
    with pytest.raises(ValueError, match="finite"):
        geo.with_delta_r(float("nan"))
    pos[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ChainGeometry(positions=pos)


def test_a_stack_of_positions_is_refused_by_its_first_failing_geometry():
    # the first geometry with a short pair decides, and within it the
    # closer-than check comes before the effective-distance one: the
    # message ChainGeometry gives that geometry alone
    stack = np.repeat(ChainGeometry.regular(4).positions[None], 4, axis=0)
    stack[1, 3, 2] = 19.3 + 1.5e-3  # (1, 3) 1.5 nm apart
    stack[2, 2, 2] = 19.3 + 5e-4  # (1, 2) 0.5 nm apart
    stack[3, 0, 2] = np.inf
    check_positions(stack[0], -1e-3)
    closer = "atoms (1, 2) closer than 1 nm"
    effective = "effective distance of atoms (1, 3) below 1 nm"
    for rows, delta_r, first, message in (
        ([0, 1, 2], -1e-3, 1, effective),
        ([0, 2, 1], -1e-3, 2, closer),
        ([0, 1, 2], 0.0, 2, closer),
    ):
        for refuse in (lambda: check_positions(stack[rows], delta_r),
                       lambda: ChainGeometry(stack[first], delta_r)):
            with pytest.raises(ValueError, match=re.escape(message)):
                refuse()
    with pytest.raises(ValueError, match="finite"):
        check_positions(stack, 0.0)


def test_model_drift_terms_are_memoised_read_only():
    # a model without positions evaluates its terms once, shared by equal
    # models: every call returns the same triple, its terms an immutable
    # tuple and its arrays read-only; a positions stack is evaluated afresh
    model = RydbergModel(ChainGeometry.regular(4).with_delta_r(0.02))
    terms, coeffs, diagonal = triple = drift_terms(model)
    assert drift_terms(RydbergModel(ChainGeometry.regular(4).with_delta_r(0.02))) is triple
    assert isinstance(terms, tuple) and all(isinstance(term, tuple) for term in terms)
    assert hash(terms) == hash(drift_terms(model)[0])
    for array in (coeffs, diagonal):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert drift_terms(model, EMISSION_BASIS)[2].shape == (3**4,)
    stacked = drift_terms(model, SPIN_BASIS, model.geometry.positions[None])
    assert stacked[1].flags.writeable and np.array_equal(stacked[1][0], coeffs)
    assert chain._model_terms.cache_info().maxsize == 32


def test_geometries_and_models_compare_by_value():
    # equal copies are equal and hash alike; a displaced atom, another
    # offset or another atom count is unequal; no comparison raises
    a, b = ChainGeometry.regular(3), ChainGeometry.regular(3)
    assert a == b and hash(a) == hash(b)
    assert RydbergModel(a) == RydbergModel(b) and hash(RydbergModel(a)) == hash(RydbergModel(b))
    displaced = a.positions.copy()
    displaced[1, 0] += 1e-9
    for other in (ChainGeometry(displaced), a.with_delta_r(0.1), ChainGeometry.regular(4)):
        assert a != other and RydbergModel(a) != RydbergModel(other)
    assert a != a.positions.tolist() and RydbergModel(a) != IdealModel(3)
    # -0.0 == 0.0 in the positions, and in the hash
    flipped = a.positions.copy()
    flipped[0] = -0.0
    assert ChainGeometry(flipped) == a and hash(ChainGeometry(flipped)) == hash(a)


def test_assemble_ideal_matches_xx_chain():
    # J on every pair of configurations one bond flip-flop apart, zero diagonal
    h = assemble_system(IdealModel(3, 1.4))
    expected = np.zeros((8, 8), dtype=complex)
    for a, b in ((4, 2), (2, 1), (6, 5), (5, 3)):
        expected[a, b] = expected[b, a] = 1.4
    assert np.array_equal(h, expected)
    doubled = assemble_system(IdealModel(3, 2.8))
    assert np.max(np.abs(doubled - 2.0 * h)) < 1e-14


def test_assemble_rydberg_is_system_plus_error():
    # N=2: the nearest-neighbor exchange plus a van der Waals diagonal only
    h = assemble_system(RydbergModel(ChainGeometry.regular(2)))
    expected = np.diag([U_UP_NN, 0.0, 0.0, U_DOWN_NN]).astype(complex)
    expected[1, 2] = expected[2, 1] = V_NN
    assert np.max(np.abs(h - expected)) < 1e-10
    # N=3: nearest-neighbor exchange, dipolar exchange on the (0, 2) pair,
    # and van der Waals shifts on all three pairs
    geo = ChainGeometry.regular(3)
    h = assemble_system(RydbergModel(geo))
    assert abs(h[4, 2] - V_NN) < 1e-10
    assert abs(h[2, 1] - V_NN) < 1e-10
    # flip-flop between |d,u,u> (4) and |u,u,d> (1) with the 2R dipole strength
    v_2r = dipole(geo, 0, 2)
    assert abs(h[4, 1] - v_2r) < 1e-12
    assert abs(v_2r - V_NN / 8.0) < 1e-10
    # diagonal of |up,up,up>: U_up at R (twice) and at 2R
    assert abs(h[0, 0] - (2 * U_UP_NN + U_UP_NN / 64.0)) < 1e-10


def test_custom_constants_propagate():
    # a pair at a custom distance on the axis: -2 C3 / R^3 and -C6 / R^6
    geo = ChainGeometry(positions=[[0.0, 0.0, 0.0], [0.0, 0.0, 10.0]])
    assert abs(dipole(geo) - TWO_PI * 8780.0 * (-2.0) / 1000.0) < 1e-10
    assert vdw_shifts(geo) == (TWO_PI * 4161550.0 / 1e6, -TWO_PI * 3452600.0 / 1e6)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pair_law_on_a_stack_gives_each_geometry_its_own_drift_bit_for_bit(n):
    # one evaluation over a stack of geometries, as a noise ensemble makes,
    # against one evaluation per geometry
    rng = np.random.default_rng(n)
    base = ChainGeometry.regular(n).with_delta_r(0.013)
    stack = base.positions + rng.normal(0.0, 0.5, size=(5, n, 3))
    terms, coeffs, diagonals = drift_terms(RydbergModel(base), SPIN_BASIS, stack)
    assert coeffs.shape == (5, n * (n - 1) // 2) and diagonals.shape == (5, 2**n)
    for positions, row, diagonal in zip(stack, coeffs, diagonals):
        one = RydbergModel(ChainGeometry(positions, base.delta_r))
        one_terms, one_row, shifts = drift_terms(one)
        assert one_terms == terms
        assert np.array_equal(row, one_row)
        assert np.array_equal(diagonal, shifts)


ORACLE_CASES = [
    (basis, n)
    for basis, n_max in ((SPIN_BASIS, 7), (EMISSION_BASIS, 5), (PROTOCOL_BASIS, 4))
    for n in range(2, n_max + 1)
]


@pytest.mark.parametrize("basis,n", ORACLE_CASES, ids=lambda v: getattr(v, "dim", v))
def test_index_builders_match_kron_reference(basis, n):
    # ideal chain J (|ud><du| + h.c.) == (J/2)(sx sx + sy sy) bit for bit;
    # the displaced chain makes every pair strength distinct
    geo = ChainGeometry.regular(n).with_delta_r(0.013)
    for model in (IdealModel(n, 1.3), RydbergModel(geo)):
        assert np.array_equal(assemble_system(model, basis), kron_drift(model, basis))
    assert np.array_equal(build_control_hz(n, basis), kron_control_hz(n, basis))


@pytest.mark.parametrize(
    "build",
    [
        lambda: assemble_system(IdealModel(6), PROTOCOL_BASIS),
        lambda: assemble_system(RydbergModel(ChainGeometry.regular(6)), PROTOCOL_BASIS),
        lambda: build_control_hz(6, PROTOCOL_BASIS),
        lambda: assemble_system(IdealModel(13)),
        lambda: hermitian_sum([], [], np.zeros(5**6), 6, PROTOCOL_BASIS),
    ],
)
def test_builders_refuse_beyond_dimension_budget(build):
    # 15625^2 and 8192^2 entries exceed 10^7: refused before any dense
    # matrix is allocated
    message = r"^(15625 rows x 15625|8192 rows x 8192) columns exceed the matrix budget of 10000000 entries$"
    with pytest.raises(ValueError, match=message):
        build()
