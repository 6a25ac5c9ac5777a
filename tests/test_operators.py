"""Tensor-product operator construction and exact unitary propagation.

Embedding oracles are written out as literal matrices (site 0 is the
leftmost factor; up has local index 0 and sigma_z eigenvalue +1). The
local matrices of ``kron_reference`` are pinned here too.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingraph.operators import (
    EMISSION_BASIS,
    PROTOCOL_BASIS,
    SPIN_BASIS,
    BlockPattern,
    LocalBasis,
    basis_state,
    block_pattern,
    check_hermitian,
    embed_local_operator,
    evolve_unitary,
    hermitian_sum,
    product_state,
    site_levels,
    transition_indices,
    two_site_operator,
)
from spingraph.chain import ChainGeometry, RydbergModel, drift_terms
from spingraph.dynamics import NoiseSpec
from spingraph.grape import ControlSchedule, check_return_budget
from spingraph.protocol import check_stage_budget, run_stage, standard_plan

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
    # the table's d^N x N entries share the one budget: 5^8 x 8 fit, 5^9 x 9 do not
    assert site_levels(7, 5).shape == (78125, 7)
    message = "^1953125 basis states x 9 sites exceed the table budget of 10000000 entries$"
    with pytest.raises(ValueError, match=message):
        site_levels(9, 5)
    with pytest.raises(ValueError):
        transition_indices(9, PROTOCOL_BASIS, ((0, "up", "down"),))


def test_index_tables_are_shared_and_read_only():
    table = site_levels(3, 5)
    assert site_levels(3, 5) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    term = ((0, "up", "down"), (2, "down", "up"))
    dst, src = transition_indices(3, PROTOCOL_BASIS, term)
    again = transition_indices(3, PROTOCOL_BASIS, tuple(list(term)))
    assert again[0] is dst and again[1] is src
    for array in (dst, src):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_term_that_names_a_site_twice_is_refused():
    # each site of a term acts once: a second transition on site 0 is
    # refused, by itself, in a dense sum and in a layout
    term = ((0, "up", "down"), (0, "down", "up"))
    for build in (
        lambda: transition_indices(2, SPIN_BASIS, term),
        lambda: hermitian_sum([term], [1.0], np.zeros(4), 2, SPIN_BASIS),
        lambda: block_pattern([term], 2, SPIN_BASIS, [0]),
    ):
        with pytest.raises(ValueError, match=r"a term names each site once, not \[0, 0\]"):
            build()


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
                dst, src = transition_indices(n, basis, ((site, to, frm),))
                reference = embed_local_operator(level_transition(to, frm, basis), site, n, basis)
                assert np.array_equal(dense_from_indices(dst, src, dim), reference)
    rng = np.random.default_rng(n)
    for _ in range(20):
        i, j = rng.choice(n, size=2, replace=False)
        a_to, a_from, b_to, b_from = rng.choice(levels, size=4)
        dst, src = transition_indices(n, basis, ((i, a_to, a_from), (j, b_to, b_from)))
        assert np.all(np.diff(src) > 0)
        reference = two_site_operator(
            level_transition(a_to, a_from, basis), i,
            level_transition(b_to, b_from, basis), j, n, basis,
        )
        assert np.array_equal(dense_from_indices(dst, src, dim), reference)


@pytest.mark.parametrize("n", [2, 3])
def test_block_pattern_matches_the_dense_sum(n):
    """Every block equals the dense sum on its indices, entry for entry, and
    the dense sum couples no reached index to an unreached one."""
    rng = np.random.default_rng(n)
    levels = PROTOCOL_BASIS.levels
    terms = [
        (complex(*rng.normal(size=2)), ((site, *rng.choice(levels, size=2, replace=False)),))
        for site in rng.integers(n, size=3)
    ]
    terms.append((0.7, ((0, "up", "down"), (n - 1, "down", "up"))))
    coeffs, moves = [c for c, _ in terms], [m for _, m in terms]
    dim = PROTOCOL_BASIS.dim**n
    diagonal = rng.normal(size=dim)
    dense = hermitian_sum(moves, coeffs, diagonal, n, PROTOCOL_BASIS)
    with pytest.raises(ValueError):  # one coefficient per term
        hermitian_sum(moves, coeffs[1:], diagonal, n, PROTOCOL_BASIS)
    for support in ([0], rng.choice(dim, size=4, replace=False), np.arange(dim)):
        pattern = BlockPattern(moves, n, PROTOCOL_BASIS, np.asarray(support))
        blocks = pattern.fill(coeffs, diagonal)
        got = np.zeros_like(dense)
        for stack_idx, stack in blocks:
            for idx, block in zip(stack_idx, stack, strict=True):
                assert np.all(np.diff(idx) > 0)
                got[np.ix_(idx, idx)] = block
        reached = np.concatenate([idx.ravel() for idx, _ in blocks])
        assert len(np.unique(reached)) == len(reached)
        assert np.all(np.isin(support, reached))
        assert np.array_equal(got[reached], dense[reached])
    assert np.array_equal(got, dense)


def test_block_pattern_refilled_gives_each_dense_sum():
    # one pattern serves every coefficient set of its moves: each fill
    # equals that set's dense sum on every block, entry for entry
    n, basis = 3, PROTOCOL_BASIS
    rng = np.random.default_rng(7)
    moves = [
        ((0, "up", "down"), (2, "down", "up")),
        ((1, "0", "r"),),
        ((1, "up", "down"), (2, "down", "up")),
    ]
    support = np.array([basis.index("up") * 25 + basis.index("down") * 5 + basis.index("r")])
    pattern = BlockPattern(moves, n, basis, support)
    for _ in range(3):
        coeffs = rng.normal(size=len(moves)) + 1j * rng.normal(size=len(moves))
        diagonal = rng.normal(size=basis.dim**n)
        dense = hermitian_sum(moves, coeffs, diagonal, n, basis)
        blocks = pattern.fill(coeffs, diagonal)
        assert len(blocks) == len(pattern.indices) > 0
        for (stack_idx, stack), indices in zip(blocks, pattern.indices):
            assert stack_idx is indices
            for idx, block in zip(stack_idx, stack, strict=True):
                assert np.array_equal(block, dense[np.ix_(idx, idx)])


def test_block_pattern_fills_a_stack_row_by_row():
    # a (G, M) coefficient stack and a (G, dim) diagonal stack give (G, k, k)
    # blocks whose rows equal one fill per row, entry for entry
    n, basis = 3, PROTOCOL_BASIS
    rng = np.random.default_rng(8)
    moves = [((0, "up", "down"), (1, "down", "up")), ((1, "up", "down"), (2, "down", "up"))]
    support = np.array([basis.index("up") * 25 + basis.index("down") * 5 + basis.index("up")])
    pattern = BlockPattern(moves, n, basis, support)
    coeffs = rng.normal(size=(5, len(moves))) + 1j * rng.normal(size=(5, len(moves)))
    diagonals = rng.normal(size=(5, basis.dim**n))
    stacked = pattern.fill(coeffs, diagonals)
    for g in range(5):
        for (idx, blocks), (row_idx, block) in zip(stacked, pattern.fill(coeffs[g], diagonals[g])):
            assert np.array_equal(idx, row_idx)
            assert blocks.shape == (5,) + block.shape
            assert np.array_equal(blocks[g], block)


def test_fill_is_real_for_real_coefficients_and_complex_otherwise():
    # real coefficients and diagonal give float64 blocks, the real symmetric
    # ones of every coupling in the package; a complex coefficient gives
    # complex Hermitian blocks; both equal the dense sum entry for entry
    n, basis = 3, PROTOCOL_BASIS
    rng = np.random.default_rng(10)
    moves = [((0, "up", "down"), (2, "down", "up")), ((1, "0", "up"),), ((2, "up", "r"),)]
    support = np.arange(basis.dim**n)
    pattern = BlockPattern(moves, n, basis, support)
    diagonal = rng.normal(size=basis.dim**n)
    real = rng.normal(size=len(moves))
    for coeffs, dtype in ((real, np.float64), (real + 1j * rng.normal(size=len(moves)), complex)):
        dense = hermitian_sum(moves, coeffs, diagonal, n, basis)
        for idx, blocks in pattern.fill(coeffs, diagonal):
            assert blocks.dtype == dtype
            for row, block in zip(idx, blocks, strict=True):
                assert np.array_equal(block, dense[np.ix_(row, row)])
    assert all(b.dtype == np.float64 for _, b in pattern.fill([1, 2, 3], np.zeros(basis.dim**n)))


def test_block_pattern_stacks_equal_size_blocks_in_one_buffer():
    # every reached index in exactly one (S, k) index row; one stack per
    # distinct size, sizes ascending, blocks of a size by smallest index; all
    # stacks views of one buffer
    n, basis = 3, PROTOCOL_BASIS
    moves = [((site, "0", "up"),) for site in range(n)]
    moves += [((a, "up", "down"), (b, "down", "up")) for a in range(n) for b in range(a + 1, n)]
    pattern = BlockPattern(moves, n, basis, np.arange(basis.dim**n))
    rng = np.random.default_rng(9)
    blocks = pattern.fill(rng.normal(size=len(moves)), rng.normal(size=basis.dim**n))
    sizes = [idx.shape[1] for idx, _ in blocks]
    assert sizes == sorted(set(sizes)) and len(sizes) > 1
    reached = np.concatenate([idx.ravel() for idx, _ in blocks])
    assert np.array_equal(np.sort(reached), np.arange(basis.dim**n))
    base = blocks[0][1].base
    for idx, stack in blocks:
        s, k = idx.shape
        assert stack.shape == (s, k, k)
        assert np.all(np.diff(idx[:, 0]) > 0)
        assert stack.base is base


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoised_layout_equals_a_fresh_one(data):
    # terms of one or two single-site transitions on distinct sites
    # (projectors included) and any support: the shared layout gives the
    # indices and the fill of a pattern built afresh, and a second request
    # with equal terms returns it
    n = data.draw(st.integers(2, 3), label="n")
    basis = data.draw(st.sampled_from([SPIN_BASIS, EMISSION_BASIS, PROTOCOL_BASIS]), label="basis")
    level = st.sampled_from(basis.levels)
    triple = st.tuples(st.integers(0, n - 1), level, level)
    term = st.lists(triple, min_size=1, max_size=2, unique_by=lambda t: t[0]).map(tuple)
    moves = data.draw(st.lists(term, max_size=4), label="moves")
    dim = basis.dim**n
    support = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=6), label="support")
    shared = block_pattern(moves, n, basis, np.array(support))
    assert block_pattern([tuple(list(m)) for m in moves], n, basis, support) is shared
    fresh = BlockPattern(moves, n, basis, np.array(support))
    rng = np.random.default_rng(len(moves))
    coeffs = rng.normal(size=len(moves)) + 1j * rng.normal(size=len(moves))
    diagonal = rng.normal(size=dim)
    got, expected = shared.fill(coeffs, diagonal), fresh.fill(coeffs, diagonal)
    assert len(shared.indices) == len(fresh.indices) == len(got) == len(expected)
    for (idx, blocks), (fresh_idx, fresh_blocks) in zip(got, expected):
        assert np.array_equal(idx, fresh_idx)
        assert np.array_equal(blocks, fresh_blocks)


def test_layouts_are_shared_only_under_equal_keys():
    # another support, move list, move direction, site order within a move,
    # basis or atom count gives its own layout
    n, basis = 3, PROTOCOL_BASIS
    moves = [((0, "up", "down"), (1, "down", "up"))]
    layout = block_pattern(moves, n, basis, np.array([16]))
    assert block_pattern([((0, "up", "down"), (1, "down", "up"))], n, basis, [16]) is layout
    others = [
        block_pattern(moves, n, basis, np.array([0])),
        block_pattern(moves, n, basis, np.array([16, 0])),
        block_pattern(moves + [((2, "0", "r"),)], n, basis, np.array([16])),
        block_pattern([((0, "down", "up"), (1, "up", "down"))], n, basis, np.array([16])),
        block_pattern([((1, "down", "up"), (0, "up", "down"))], n, basis, np.array([16])),
        block_pattern(moves, n, EMISSION_BASIS, np.array([16])),
        block_pattern(moves, 2, basis, np.array([16])),
    ]
    assert len({id(p) for p in [layout, *others]}) == 1 + len(others)


def test_shared_layout_arrays_are_read_only():
    n, basis = 3, SPIN_BASIS
    moves = [((0, "up", "down"), (1, "down", "up")), ((1, "up", "down"), (2, "down", "up"))]
    layout = block_pattern(moves, n, basis, np.arange(basis.dim**n))
    assert len(layout.indices) > 1
    for idx in layout.indices:
        with pytest.raises(ValueError, match="read-only"):
            idx[0, 0] = 0
    # a fill is the caller's own: writing into it leaves the layout intact
    (idx, blocks), *_ = layout.fill(np.ones(2), np.zeros(basis.dim**n))
    blocks[:] = 7.0
    assert not np.any(layout.fill(np.ones(2), np.zeros(basis.dim**n))[0][1] == 7.0)


#: Single-site moves that chain all five protocol levels, joining all 5^N indices.
ALL_LEVEL_MOVES = [
    ((site, *pair),)
    for site in range(6)
    for pair in [("0", "1"), ("1", "up"), ("up", "down"), ("down", "r")]
]


def test_block_pattern_refuses_a_block_beyond_the_dense_budget():
    message = "^244140625 block entries exceed the block budget of 10000000 entries$"
    with pytest.raises(ValueError, match=message):
        BlockPattern(ALL_LEVEL_MOVES, 6, PROTOCOL_BASIS, np.array([0]))
    # its three d^N index tables: 3 x 5^10 entries, before any label
    message = "^3 index tables x 9765625 basis states exceed the layout budget of 10000000 entries$"
    with pytest.raises(ValueError, match=message):
        BlockPattern([], 10, PROTOCOL_BASIS, np.array([0]))


#: A six-atom chain whose core has 1000 slices, and that core.
SIX_ATOM_PLAN = standard_plan(ChainGeometry.regular(6), ControlSchedule(0.233, np.ones(1000)))
SIX_ATOM_CORE = SIX_ATOM_PLAN.stages[2]

#: ``<n> <what>[ x <n> <what>] exceed the <stack> budget of <B> <unit>``
BUDGET_REFUSAL = r"\d+ [A-Za-z ]+( x \d+ [A-Za-z ]+)* exceed the [a-z]+ budget of \d+ [a-z]+"


@pytest.mark.parametrize(
    "refused",
    [
        lambda: site_levels(9, 5),
        lambda: basis_state(["0"] * 11, PROTOCOL_BASIS),
        lambda: BlockPattern(ALL_LEVEL_MOVES, 6, PROTOCOL_BASIS, np.array([0])),
        # 13 spins' flip-flops: sum over m of C(13, m)^2 = 10400600 entries
        lambda: BlockPattern(
            [((i, "up", "down"), (i + 1, "down", "up")) for i in range(12)], 13, SPIN_BASIS,
            np.arange(2**13),
        ),
        lambda: embed_local_operator(np.eye(2), 0, 13, SPIN_BASIS),
        lambda: two_site_operator(np.eye(2), 0, np.eye(2), 1, 13, SPIN_BASIS),
        lambda: hermitian_sum([], [], np.zeros(2**13), 13, SPIN_BASIS),
        lambda: embed_local_operator(np.eye(5), 0, 6, PROTOCOL_BASIS),
        lambda: two_site_operator(np.eye(5), 0, np.eye(5), 1, 6, PROTOCOL_BASIS),
        lambda: hermitian_sum([], [], np.zeros(5**6), 6, PROTOCOL_BASIS),
        # 1000 x 5^6 states of a six-atom core stage
        lambda: run_stage(basis_state(["up"] * 6, PROTOCOL_BASIS), SIX_ATOM_CORE, SIX_ATOM_PLAN),
        lambda: check_stage_budget(10**6, 3),
        # seven atoms: the map-to-clock layout's 17233281 block entries
        lambda: check_stage_budget(20, 7),
        lambda: drift_terms(RydbergModel(ChainGeometry.regular(15)), PROTOCOL_BASIS),
        lambda: check_return_budget(10**7, 2),
        lambda: NoiseSpec(field_sigma=1.0, samples=10**6).check_trace_budget(101),
    ],
    ids=[
        "site_levels", "basis_state", "block_pattern", "spin-layout-13",
        "embed-2^13", "two_site-2^13", "hermitian_sum-2^13",
        "embed-5^6", "two_site-5^6", "hermitian_sum-5^6",
        "stage-state", "stage", "stage-layout", "drift-diagonal-5^15", "return", "ensemble",
    ],
)
def test_every_memory_refusal_has_one_form(refused):
    with pytest.raises(ValueError) as refusal:
        refused()
    assert re.fullmatch(BUDGET_REFUSAL, str(refusal.value)), str(refusal.value)


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
