"""Complete-graph target states: the operator-product form, the CZ-circuit
form, their exact relation, and stabilizer checks.

The operator-product oracle below expands the defining product literally,
term by term: site i (1-based) contributes either the down branch or the
up branch, the up branch carrying the prefactor (-1)^(n-i) and a sigma_z
eigenvalue for every later site's ket.
"""

import numpy as np
import pytest

from spingraph.chain import build_control_hz
from spingraph.operators import SPIN_BASIS, embed_local_operator
from spingraph.targets import (
    TargetForm,
    complete_graph_state,
    cz_graph_state,
    plus_product_state,
    target_state,
)

from kron_reference import SIGMA_X, SIGMA_Z, spin_half_operator


def literal_product_expansion(n: int) -> np.ndarray:
    """Independent amplitude-by-amplitude expansion of the defining product."""
    v = np.zeros(2**n, dtype=complex)
    for code in range(2**n):
        bits = [(code >> (n - 1 - i)) & 1 for i in range(n)]  # 0 = up, 1 = down
        amp = 1.0
        for i in range(n):
            if bits[i] == 0:
                amp *= (-1.0) ** (n - (i + 1))
                for j in range(i + 1, n):
                    amp *= 1.0 if bits[j] == 0 else -1.0
        v[code] = amp
    return v / np.sqrt(2.0**n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_operator_product_matches_literal_expansion(n):
    state = complete_graph_state(n)
    oracle = literal_product_expansion(n)
    assert np.max(np.abs(state - oracle)) < 1e-14


def test_n3_expansion_amplitudes():
    # hand expansion, basis order up-first (uuu, uud, udu, udd, duu, ...)
    state = complete_graph_state(3)
    expanded = np.array([-1, -1, -1, 1, -1, 1, 1, 1]) / np.sqrt(8.0)
    assert np.max(np.abs(state - expanded)) < 1e-14
    # the CZ construction gives exactly -1 times the product form at N=3,
    # with a positive all-up amplitude
    cz = cz_graph_state(3)
    assert np.max(np.abs(cz - (-1.0) * state)) < 1e-14
    assert cz[0] == pytest.approx(1.0 / np.sqrt(8.0))


def test_n2_expansion_amplitudes():
    state = complete_graph_state(2)
    assert np.allclose(state, np.array([-1, 1, 1, 1]) / 2.0)


def test_all_down_amplitude_positive():
    for n in range(2, 6):
        state = complete_graph_state(n)
        assert state[2**n - 1] == pytest.approx(1.0 / np.sqrt(2.0**n))


def test_norm_exact():
    for n in range(2, 8):
        for form in (complete_graph_state, cz_graph_state):
            state = form(n)
            assert abs(np.vdot(state, state) - 1.0) < 1e-14


def test_cz_two_qubits():
    # CZ on |++> flips only the down-down amplitude
    state = cz_graph_state(2)
    assert np.allclose(state, np.array([1, 1, 1, -1]) / 2.0)


def test_cz_matches_explicit_gate_application():
    # apply each pairwise CZ as a dense diagonal gate to |+...+>
    for n in (2, 3, 4):
        state = plus_product_state(n)
        for i in range(n):
            for j in range(i + 1, n):
                diag = np.ones(2**n)
                for code in range(2**n):
                    bi = (code >> (n - 1 - i)) & 1
                    bj = (code >> (n - 1 - j)) & 1
                    if bi == 1 and bj == 1:
                        diag[code] = -1.0
                state = diag * state
        assert np.max(np.abs(state - cz_graph_state(n))) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_literal_vs_cz_sign_relation(n):
    # per down-count k: literal / cz = (-1)^(C(n,2) + k(1-n))
    literal = complete_graph_state(n)
    cz = cz_graph_state(n)
    for code in range(2**n):
        k = bin(code).count("1")
        expected = (-1.0) ** (n * (n - 1) // 2 + k * (1 - n))
        assert literal[code] == pytest.approx(expected * cz[code])


def test_literal_and_cz_relate_by_uniform_z_layer():
    # the relation is a global phase times exp(i pi Hz)-like layer: for odd
    # n a pure global phase, for even n a uniform sigma_z rotation
    for n in (3, 5):
        literal = complete_graph_state(n)
        cz = cz_graph_state(n)
        phase = (-1.0) ** (n * (n - 1) // 2)
        assert np.max(np.abs(literal - phase * cz)) < 1e-14
    for n in (2, 4):
        literal = complete_graph_state(n)
        cz = cz_graph_state(n)
        hz = np.real(np.diag(build_control_hz(n)))
        layer = np.exp(1j * np.pi * hz)
        ratio = literal / (layer * cz)
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12
        assert abs(abs(ratio[0]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_stabilizers(n):
    # <psi| sx_i prod_{j != i} sz_j |psi> = 1 for every site i of the CZ form
    state = cz_graph_state(n)
    sx = spin_half_operator(SIGMA_X, SPIN_BASIS)
    sz = spin_half_operator(SIGMA_Z, SPIN_BASIS)
    for i in range(n):
        op = embed_local_operator(sx, i, n, SPIN_BASIS)
        for j in range(n):
            if j != i:
                op = op @ embed_local_operator(sz, j, n, SPIN_BASIS)
        assert np.vdot(state, op @ state).real == pytest.approx(1.0, abs=1e-12)
    # the product form shares them for odd n (pure global phase apart);
    # for even n its uniform Z-layer flips each expectation to -1
    literal = complete_graph_state(n)
    op = embed_local_operator(sx, 0, n, SPIN_BASIS)
    for j in range(1, n):
        op = op @ embed_local_operator(sz, j, n, SPIN_BASIS)
    expected = 1.0 if n % 2 == 1 else -1.0
    assert np.vdot(literal, op @ literal).real == pytest.approx(expected, abs=1e-12)


def test_target_state_dispatch():
    assert np.array_equal(
        target_state(TargetForm.OPERATOR_PRODUCT, 3), complete_graph_state(3)
    )
    assert np.array_equal(target_state(TargetForm.CZ_CIRCUIT, 3), cz_graph_state(3))


def test_site_count_bounds():
    with pytest.raises(ValueError):
        complete_graph_state(1)
    with pytest.raises(ValueError):
        complete_graph_state(8)
    with pytest.raises(ValueError):
        target_state(TargetForm.OPERATOR_PRODUCT, 1)
