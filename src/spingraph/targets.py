"""Complete-graph target states and the product states feeding them.

Two constructions of the N-qubit complete graph state are provided on
purpose. ``complete_graph_state`` evaluates the operator-product
definition, whose amplitude on a configuration with m up-spins is
2^{-N/2} (-1)^{m(m-1)/2}. ``cz_graph_state`` applies controlled-Z gates
to |+>^N pair by pair, giving amplitude 2^{-N/2} (-1)^{k(k-1)/2} with k
the number of down-spins. The two vectors agree up to a global phase for
odd N and differ by a uniform Z layer for even N; the per-configuration
sign ratio is (-1)^{C(N,2) + k(1-N)}. Optimization targets use the
operator-product form; the CZ form is the independent oracle.

Every builder returns a spin-basis vector. The protocol places
``complete_graph_state`` on two of its five levels itself
(``protocol._on_levels``).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .operators import SPIN_BASIS, site_levels

__all__ = [
    "TargetForm",
    "complete_graph_state",
    "cz_graph_state",
    "plus_product_state",
    "target_state",
]

MAX_TARGET_SITES = 7


class TargetForm(str, Enum):
    """Which complete-graph construction the optimizer aims at."""

    OPERATOR_PRODUCT = "operator-product"
    CZ_CIRCUIT = "cz-circuit"


def _check_n(n_sites: int) -> None:
    if not 2 <= n_sites <= MAX_TARGET_SITES:
        raise ValueError(f"n_sites must be in [2, {MAX_TARGET_SITES}]")


def _down_bits(n_sites: int) -> np.ndarray:
    # (2^N, N) table, True where a site is down in that spin configuration
    return site_levels(n_sites, 2) == SPIN_BASIS.index("down")


def complete_graph_state(n_sites: int) -> np.ndarray:
    """Operator-product complete graph state.

    Amplitude 2^{-N/2} (-1)^{m(m-1)/2} on each configuration with m
    up-spins; the all-down amplitude is positive, which fixes the global
    phase of this representative.
    """
    _check_n(n_sites)
    m = n_sites - np.sum(_down_bits(n_sites), axis=1)
    amps = ((-1.0) ** (m * (m - 1) // 2)) / np.sqrt(2.0**n_sites)
    return amps.astype(complex)


def cz_graph_state(n_sites: int) -> np.ndarray:
    """prod_{i<j} CZ_{ij} |+>^N built by explicit gate application.

    |up> plays the role of |0> and |down> of |1>; each CZ flips the sign
    of configurations with down-spins on both of its qubits.
    """
    _check_n(n_sites)
    dim = 2**n_sites
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    down = _down_bits(n_sites)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            psi = np.where(down[:, i] & down[:, j], -psi, psi)
    return psi


def plus_product_state(n_sites: int) -> np.ndarray:
    """(|up> + |down>)^{x N} / 2^{N/2}, the equal-weight start state."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    return np.full(2**n_sites, 1.0 / np.sqrt(2.0**n_sites), dtype=complex)


def target_state(form: TargetForm, n_sites: int) -> np.ndarray:
    """The N-site complete graph state in the chosen construction."""
    if TargetForm(form) is TargetForm.CZ_CIRCUIT:
        return cz_graph_state(n_sites)
    return complete_graph_state(n_sites)
