"""Chain Hamiltonians: XX exchange, global control term, dipolar couplings.

Interaction strengths are checked against independently computed scalars
(frozen below), matrix structure against literal index bookkeeping, and
every index-built Hamiltonian against a dense kron-product reference.
"""

import numpy as np
import pytest

from spingraph.chain import (
    DEFAULT_CONSTANTS,
    ChainGeometry,
    IdealModel,
    PhysicalConstants,
    RydbergModel,
    assemble_system,
    build_control_hz,
    build_error_hamiltonian,
    build_rydberg_system,
    build_xx_chain,
    dipole_strength,
    vdw_strength,
)
from spingraph.operators import (
    EMISSION_BASIS,
    PROTOCOL_BASIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SPIN_BASIS,
    embed_local_operator,
    level_projector,
    level_transition,
    spin_half_operator,
    two_site_operator,
)

TWO_PI = 2.0 * np.pi

# nearest-neighbor scalars at R = 19.3 um on the axis, computed by hand:
# C3 (1-3) / R^3 and -C6 / R^6
V_NN = -15.34731662220421
U_UP_NN = 0.5059308141049417
U_DOWN_NN = -0.4197418579084047


def test_constants_frozen():
    assert DEFAULT_CONSTANTS.c3 == TWO_PI * 8780.0
    assert DEFAULT_CONSTANTS.c6_up == -TWO_PI * 4161550.0
    assert DEFAULT_CONSTANTS.c6_down == TWO_PI * 3452600.0
    assert DEFAULT_CONSTANTS.spacing == 19.3
    assert DEFAULT_CONSTANTS.version == "rydberg-constants-v1"


def test_regular_chain_positions():
    geo = ChainGeometry.regular(4)
    assert geo.n_sites == 4
    assert np.array_equal(geo.positions[:, :2], np.zeros((4, 2)))
    assert np.allclose(geo.positions[:, 2], 19.3 * np.arange(4))
    assert np.array_equal(geo.quantization_axis, [0.0, 0.0, 1.0])


def test_geometry_validation():
    with pytest.raises(ValueError):
        ChainGeometry(positions=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ChainGeometry(positions=np.zeros((2, 3)))  # coincident atoms
    with pytest.raises(ValueError):
        ChainGeometry(positions=np.zeros((2, 3)), quantization_axis=np.zeros(3))
    with pytest.raises(ValueError):
        IdealModel(n_sites=3, coupling=0.0)
    with pytest.raises(ValueError):
        IdealModel(n_sites=1)


def test_xx_chain_two_sites_structure():
    j = 1.7
    h = build_xx_chain(2, j)
    # only the flip-flop pair |ud><du| + |du><ud| survives
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = j
    assert np.max(np.abs(h - expected)) < 1e-14


def test_xx_chain_single_excitation_spectrum():
    # one-down sector of the N=3 chain is the 3-site hopping matrix with
    # eigenvalues {0, +-sqrt(2) J}
    j = 1.3
    h = build_xx_chain(3, j)
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
    assert abs(dipole_strength(geo, 0, 1) - V_NN) < 1e-10
    assert abs(V_NN + TWO_PI * 2.44260130362021) < 1e-10


def test_dipole_cubic_distance_scaling():
    geo1 = ChainGeometry.regular(2)
    geo2 = ChainGeometry.regular(2, spacing=2 * 19.3)
    assert abs(dipole_strength(geo2, 0, 1) / dipole_strength(geo1, 0, 1) - 0.125) < 1e-12


def test_dipole_magic_angle():
    # pair separation at cos(theta) = 1/sqrt(3) from the axis: coupling vanishes
    c = 1.0 / np.sqrt(3.0)
    s = np.sqrt(1.0 - c**2)
    pos = np.array([[0.0, 0.0, 0.0], [19.3 * s, 0.0, 19.3 * c]])
    geo = ChainGeometry(positions=pos)
    assert abs(dipole_strength(geo, 0, 1)) < 1e-12


def test_dipole_transverse_pair_positive():
    # perpendicular to the axis: 1 - 3 cos^2 = 1, so C3 / R^3 > 0
    pos = np.array([[0.0, 0.0, 0.0], [19.3, 0.0, 0.0]])
    geo = ChainGeometry(positions=pos)
    assert abs(dipole_strength(geo, 0, 1) - TWO_PI * 8780.0 / 19.3**3) < 1e-10


def test_vdw_values_and_signs():
    geo = ChainGeometry.regular(2)
    assert abs(vdw_strength(geo, 0, 1, "up") - U_UP_NN) < 1e-10
    assert abs(vdw_strength(geo, 0, 1, "down") - U_DOWN_NN) < 1e-10
    with pytest.raises(ValueError):
        vdw_strength(geo, 0, 1, "g")


def test_delta_r_rescales_couplings():
    geo = ChainGeometry.regular(2)
    shifted = geo.with_delta_r(0.3)
    ratio = dipole_strength(shifted, 0, 1) / dipole_strength(geo, 0, 1)
    assert abs(ratio - (19.3 / 19.6) ** 3) < 1e-12
    ratio6 = vdw_strength(shifted, 0, 1, "up") / vdw_strength(geo, 0, 1, "up")
    assert abs(ratio6 - (19.3 / 19.6) ** 6) < 1e-12
    with pytest.raises(ValueError):
        dipole_strength(geo.with_delta_r(-19.3), 0, 1)


def test_error_hamiltonian_two_sites_vdw_only():
    geo = ChainGeometry.regular(2)
    h = build_error_hamiltonian(geo)
    expected = np.diag([U_UP_NN, 0.0, 0.0, U_DOWN_NN]).astype(complex)
    assert np.max(np.abs(h - expected)) < 1e-10


def test_error_hamiltonian_three_sites_content():
    # vdW on all three pairs; dipolar exchange only on the (0, 2) pair
    geo = ChainGeometry.regular(3)
    h = build_error_hamiltonian(geo)
    # diagonal of |up,up,up>: U_up at R and at 2R
    u_2r = vdw_strength(geo, 0, 2, "up")
    assert abs(h[0, 0] - (2 * U_UP_NN + u_2r)) < 1e-10
    # flip-flop between |d,u,u> (4) and |u,u,d> (1) with the 2R dipole strength
    v_2r = dipole_strength(geo, 0, 2)
    assert abs(h[4, 1] - v_2r) < 1e-12
    assert abs(v_2r - V_NN / 8.0) < 1e-10
    # no nearest-neighbor exchange in the error part
    assert h[4, 2] == 0.0 and h[2, 1] == 0.0


def test_rydberg_system_is_nearest_neighbor_exchange():
    geo = ChainGeometry.regular(3)
    h = build_rydberg_system(geo)
    assert abs(h[4, 2] - V_NN) < 1e-10
    assert abs(h[2, 1] - V_NN) < 1e-10
    assert h[4, 1] == 0.0
    assert np.max(np.abs(np.diag(h))) == 0.0


def test_assemble_ideal_matches_xx_chain():
    assert np.array_equal(assemble_system(IdealModel(3, 1.4)), build_xx_chain(3, 1.4))
    doubled = assemble_system(IdealModel(3, 2.8))
    assert np.max(np.abs(doubled - 2.0 * assemble_system(IdealModel(3, 1.4)))) < 1e-14


def test_assemble_rydberg_is_system_plus_error():
    geo = ChainGeometry.regular(3)
    total = assemble_system(RydbergModel(geo))
    parts = build_rydberg_system(geo) + build_error_hamiltonian(geo)
    assert np.array_equal(total, parts)


def test_custom_constants_propagate():
    consts = PhysicalConstants(c3=TWO_PI * 1000.0, spacing=10.0)
    geo = ChainGeometry.regular(2, constants=consts)
    assert abs(dipole_strength(geo, 0, 1) - TWO_PI * 1000.0 * (-2.0) / 1000.0) < 1e-10


def kron_flip_flop(strength, i, j, n, basis):
    up_dn = level_transition("up", "down", basis)
    dn_up = level_transition("down", "up", basis)
    return strength * (
        two_site_operator(up_dn, i, dn_up, j, n, basis)
        + two_site_operator(dn_up, i, up_dn, j, n, basis)
    )


def kron_drift(model, basis):
    """Reference H0 as a sum of dense N-fold kron products."""
    n = model.n_sites
    h = np.zeros((basis.dim**n,) * 2, dtype=complex)
    if isinstance(model, IdealModel):
        sx = spin_half_operator(SIGMA_X, basis)
        sy = spin_half_operator(SIGMA_Y, basis)
        for i in range(n - 1):
            h += (model.coupling / 2.0) * (
                two_site_operator(sx, i, sx, i + 1, n, basis)
                + two_site_operator(sy, i, sy, i + 1, n, basis)
            )
        return h
    geo = model.geometry
    for i in range(n - 1):
        h += kron_flip_flop(dipole_strength(geo, i, i + 1), i, i + 1, n, basis)
    for i in range(n):
        for j in range(i + 1, n):
            for level in ("up", "down"):
                proj = level_projector(level, basis)
                h += vdw_strength(geo, i, j, level) * two_site_operator(
                    proj, i, proj, j, n, basis
                )
            if j > i + 1:
                h += kron_flip_flop(dipole_strength(geo, i, j), i, j, n, basis)
    return h


def kron_control_hz(n, basis):
    sz_half = spin_half_operator(0.5 * SIGMA_Z, basis)
    return sum(embed_local_operator(sz_half, i, n, basis) for i in range(n))


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
        lambda: build_error_hamiltonian(ChainGeometry.regular(6), PROTOCOL_BASIS),
    ],
)
def test_builders_refuse_beyond_dimension_budget(build):
    # 5^6 = 15625 > 4096: refused before any dense matrix is allocated
    with pytest.raises(ValueError, match="exceeds the supported budget"):
        build()
