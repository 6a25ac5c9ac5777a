"""Tensor-product operator construction and exact unitary propagation.

Embedding oracles are written out as literal matrices (site 0 is the
leftmost factor; up has local index 0 and sigma_z eigenvalue +1). The
local matrices of ``kron_reference`` are pinned here too.
"""

import numpy as np
import pytest

from spingraph.operators import (
    EMISSION_BASIS,
    PROTOCOL_BASIS,
    SPIN_BASIS,
    LocalBasis,
    basis_state,
    check_hermitian,
    embed_local_operator,
    evolve_unitary,
    hermitian_blocks,
    hermitian_sum,
    product_state,
    site_levels,
    transition_indices,
    two_site_operator,
)

from kron_reference import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed_spin_state,
    level_projector,
    level_transition,
    spin_half_operator,
)


def test_pauli_matrices_frozen():
    assert np.array_equal(SIGMA_X, [[0, 1], [1, 0]])
    assert np.array_equal(SIGMA_Y, [[0, -1j], [1j, 0]])
    assert np.array_equal(SIGMA_Z, [[1, 0], [0, -1]])


def test_local_basis_levels():
    assert SPIN_BASIS.levels == ("up", "down")
    assert SPIN_BASIS.dim == 2
    assert SPIN_BASIS.index("up") == 0
    assert SPIN_BASIS.index("down") == 1
    assert EMISSION_BASIS.levels == ("up", "down", "g")
    assert PROTOCOL_BASIS.levels == ("0", "1", "up", "down", "r")
    assert not SPIN_BASIS.has_level("g")
    with pytest.raises(KeyError):
        SPIN_BASIS.index("r")


def test_local_basis_rejects_duplicates():
    with pytest.raises(ValueError):
        LocalBasis(("up", "up"))


def test_embed_sigma_z_two_sites():
    # site 0 leftmost: sz at site 0 is diag(+1,+1,-1,-1), at site 1 diag(+1,-1,+1,-1)
    sz = spin_half_operator(SIGMA_Z, SPIN_BASIS)
    at0 = embed_local_operator(sz, 0, 2, SPIN_BASIS)
    at1 = embed_local_operator(sz, 1, 2, SPIN_BASIS)
    assert np.array_equal(at0, np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.array_equal(at1, np.diag([1.0, -1.0, 1.0, -1.0]))


def test_embed_sigma_x_two_sites():
    sx = spin_half_operator(SIGMA_X, SPIN_BASIS)
    at0 = embed_local_operator(sx, 0, 2, SPIN_BASIS)
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(at0, expected)


def test_two_site_operator_zz():
    sz = spin_half_operator(SIGMA_Z, SPIN_BASIS)
    zz = two_site_operator(sz, 0, sz, 1, 2, SPIN_BASIS)
    assert np.array_equal(zz, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_two_site_operator_rejects_same_site():
    sz = spin_half_operator(SIGMA_Z, SPIN_BASIS)
    with pytest.raises(ValueError):
        two_site_operator(sz, 1, sz, 1, 2, SPIN_BASIS)


def test_spin_half_embeds_into_larger_basis():
    # the up/down block is the 2x2 input; every g row/column is zero
    sz3 = spin_half_operator(SIGMA_Z, EMISSION_BASIS)
    assert np.array_equal(sz3, np.diag([1.0, -1.0, 0.0]))
    sx3 = spin_half_operator(SIGMA_X, EMISSION_BASIS)
    assert sx3[0, 1] == 1.0 and sx3[1, 0] == 1.0
    assert np.all(sx3[2, :] == 0) and np.all(sx3[:, 2] == 0)


def test_level_projector_and_transition():
    p = level_projector("g", EMISSION_BASIS)
    assert np.array_equal(p, np.diag([0.0, 0.0, 1.0]))
    t = level_transition("g", "up", EMISSION_BASIS)
    expected = np.zeros((3, 3))
    expected[2, 0] = 1.0
    assert np.array_equal(t, expected)


def test_basis_state_and_product_state():
    dd = basis_state(["down", "down"], SPIN_BASIS)
    assert dd[3] == 1.0 and np.sum(np.abs(dd)) == 1.0
    ud = basis_state(["up", "down"], SPIN_BASIS)
    assert ud[1] == 1.0
    plus = product_state(np.array([1.0, 1.0]) / np.sqrt(2.0), 3)
    assert np.allclose(plus, np.full(8, 1.0 / np.sqrt(8.0)))


def test_evolve_zero_time_is_identity_copy():
    psi = np.array([1.0, 0.0], dtype=complex)
    h = spin_half_operator(SIGMA_Z, SPIN_BASIS)
    out = evolve_unitary(h, 0.0, psi)
    assert np.array_equal(out, psi)
    assert out is not psi


def test_evolve_eigenstate_phase():
    # sigma_z |up> = +|up>, so exp(-iHt)|up> = exp(-it)|up>
    h = spin_half_operator(SIGMA_Z, SPIN_BASIS)
    up = basis_state(["up"], SPIN_BASIS)
    out = evolve_unitary(h, 0.7, up)
    assert abs(out[0] - np.exp(-0.7j)) < 1e-12
    assert out[1] == 0.0


def test_evolve_flip_flop_rotation():
    # H = J(|ud><du| + |du><ud|): |ud> -> cos(Jt)|ud> - i sin(Jt)|du>
    j, t = 0.9, 0.6
    ud = level_transition("up", "down", SPIN_BASIS)
    du = level_transition("down", "up", SPIN_BASIS)
    h = j * (
        two_site_operator(ud, 0, du, 1, 2, SPIN_BASIS)
        + two_site_operator(du, 0, ud, 1, 2, SPIN_BASIS)
    )
    psi = basis_state(["up", "down"], SPIN_BASIS)
    out = evolve_unitary(h, t, psi)
    assert abs(out[1] - np.cos(j * t)) < 1e-12
    assert abs(out[2] - (-1j) * np.sin(j * t)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evolve_unitarity_and_composition(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = 0.5 * (a + a.conj().T)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    t1, t2 = 0.31, 1.7
    once = evolve_unitary(h, t1 + t2, psi)
    twice = evolve_unitary(h, t2, evolve_unitary(h, t1, psi))
    assert abs(np.linalg.norm(once) - 1.0) < 1e-10
    assert np.max(np.abs(once - twice)) < 1e-10


def test_evolve_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        evolve_unitary(h, 1.0, np.array([1.0, 0.0], dtype=complex))


def test_evolve_rejects_non_finite():
    h = np.array([[np.nan, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        evolve_unitary(h, 1.0, np.array([1.0, 0.0], dtype=complex))


def test_check_hermitian_tolerance():
    h = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        check_hermitian(h)
    check_hermitian(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]], dtype=complex))


def test_embed_spin_state_index_map():
    # spin |down,down> (index 3) lands on emission index 1*3 + 1 = 4
    dd = basis_state(["down", "down"], SPIN_BASIS)
    out = embed_spin_state(dd, 2, EMISSION_BASIS)
    assert out.shape == (9,)
    assert out[4] == 1.0
    assert np.sum(np.abs(out)) == 1.0
    # a superposition keeps its amplitudes on the matching configurations
    psi = np.zeros(4, dtype=complex)
    psi[1] = 0.6  # |up,down>
    psi[2] = 0.8j  # |down,up>
    out = embed_spin_state(psi, 2, EMISSION_BASIS)
    assert out[1] == 0.6  # up,down -> 0*3+1
    assert out[3] == 0.8j  # down,up -> 1*3+0
    # protocol basis: up has local index 2, down 3
    out5 = embed_spin_state(dd, 2, PROTOCOL_BASIS)
    assert out5[3 * 5 + 3] == 1.0


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_site_levels_rows_are_base_d_digits(d, n):
    table = site_levels(n, d)
    assert table.shape == (d**n, n)
    for index, row in enumerate(table):
        # site 0 is the most significant digit
        assert int("".join(map(str, row)), d) == index


def test_site_levels_refuses_beyond_budget():
    # the table shares the state-vector budget 5^6, above the dense one
    assert site_levels(6, 5).shape == (15625, 6)
    with pytest.raises(ValueError, match="exceeds the supported budget 15625"):
        site_levels(7, 5)
    with pytest.raises(ValueError):
        transition_indices(7, PROTOCOL_BASIS, {0: ("up", "down")})


def test_index_tables_are_shared_and_read_only():
    table = site_levels(3, 5)
    assert site_levels(3, 5) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    moves = {0: ("up", "down"), 2: ("down", "up")}
    dst, src = transition_indices(3, PROTOCOL_BASIS, moves)
    again = transition_indices(3, PROTOCOL_BASIS, dict(moves))
    assert again[0] is dst and again[1] is src
    for array in (dst, src):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def dense_from_indices(dst, src, dim):
    out = np.zeros((dim, dim), dtype=complex)
    out[dst, src] = 1.0
    return out


@pytest.mark.parametrize("basis,n", [(SPIN_BASIS, 4), (EMISSION_BASIS, 3), (PROTOCOL_BASIS, 3)])
def test_transition_indices_match_kron_reference(basis, n):
    levels = basis.levels
    dim = basis.dim**n
    for site in range(n):
        for to in levels:
            for frm in levels:
                dst, src = transition_indices(n, basis, {site: (to, frm)})
                reference = embed_local_operator(level_transition(to, frm, basis), site, n, basis)
                assert np.array_equal(dense_from_indices(dst, src, dim), reference)
    rng = np.random.default_rng(n)
    for _ in range(20):
        i, j = rng.choice(n, size=2, replace=False)
        a_to, a_from, b_to, b_from = rng.choice(levels, size=4)
        dst, src = transition_indices(n, basis, {i: (a_to, a_from), j: (b_to, b_from)})
        assert np.all(np.diff(src) > 0)
        reference = two_site_operator(
            level_transition(a_to, a_from, basis), i,
            level_transition(b_to, b_from, basis), j, n, basis,
        )
        assert np.array_equal(dense_from_indices(dst, src, dim), reference)


@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_blocks_match_the_dense_sum(n):
    """Every block equals the dense sum on its indices, entry for entry, and
    the dense sum couples no reached index to an unreached one."""
    rng = np.random.default_rng(n)
    levels = PROTOCOL_BASIS.levels
    terms = [
        (complex(*rng.normal(size=2)), {site: tuple(rng.choice(levels, size=2, replace=False))})
        for site in rng.integers(n, size=3)
    ]
    terms.append((0.7, {0: ("up", "down"), n - 1: ("down", "up")}))
    dim = PROTOCOL_BASIS.dim**n
    diagonal = rng.normal(size=dim)
    dense = hermitian_sum(terms, diagonal, n, PROTOCOL_BASIS)
    for support in ([0], rng.choice(dim, size=4, replace=False), np.arange(dim)):
        blocks = hermitian_blocks(terms, diagonal, n, PROTOCOL_BASIS, np.asarray(support))
        got = np.zeros_like(dense)
        for idx, block in blocks:
            assert np.all(np.diff(idx) > 0)
            got[np.ix_(idx, idx)] = block
        reached = np.concatenate([idx for idx, _ in blocks])
        assert len(np.unique(reached)) == len(reached)
        assert np.all(np.isin(support, reached))
        assert np.array_equal(got[reached], dense[reached])
    assert np.array_equal(got, dense)


def test_hermitian_blocks_refuse_a_block_beyond_the_dense_budget():
    # single-site moves that chain all five levels join all 5^6 indices
    chain = [("0", "1"), ("1", "up"), ("up", "down"), ("down", "r")]
    terms = [(1.0, {site: pair}) for site in range(6) for pair in chain]
    with pytest.raises(ValueError, match="block dimension 15625 exceeds the supported budget 4096"):
        hermitian_blocks(terms, np.zeros(5**6), 6, PROTOCOL_BASIS, np.array([0]))
    with pytest.raises(ValueError, match="exceeds the supported budget 15625"):
        hermitian_blocks([], np.zeros(5**7), 7, PROTOCOL_BASIS, np.array([0]))


@pytest.mark.parametrize("basis", [EMISSION_BASIS, PROTOCOL_BASIS])
def test_embed_spin_state_matches_basis_ket_sum(basis):
    n = 4
    rng = np.random.default_rng(7)
    psi2 = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    reference = np.zeros(basis.dim**n, dtype=complex)
    for code, amp in enumerate(psi2):
        labels = [SPIN_BASIS.levels[int(b)] for b in format(code, f"0{n}b")]
        reference += amp * basis_state(labels, basis)
    assert np.array_equal(embed_spin_state(psi2, n, basis), reference)


def test_basis_state_matches_kron_of_local_kets():
    labels = ["r", "0", "down", "up"]
    ket = np.ones(1)
    for name in labels:
        ket = np.kron(ket, np.eye(PROTOCOL_BASIS.dim)[PROTOCOL_BASIS.index(name)])
    assert np.array_equal(basis_state(labels, PROTOCOL_BASIS), ket)
