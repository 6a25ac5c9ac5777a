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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import SPIN_BASIS, LocalBasis, embed_spin_state, site_levels

__all__ = [
    "TargetForm",
    "TargetSpec",
    "complete_graph_state",
    "cz_graph_state",
    "plus_product_state",
    "target_state",
    "state_to_json",
    "state_from_json",
    "spin_config_labels",
]

MAX_TARGET_SITES = 7


class TargetForm(str, Enum):
    """Which complete-graph construction the optimizer aims at."""

    OPERATOR_PRODUCT = "operator-product"
    CZ_CIRCUIT = "cz-circuit"


@dataclass(frozen=True)
class TargetSpec:
    n_sites: int
    form: TargetForm = TargetForm.OPERATOR_PRODUCT

    def __post_init__(self) -> None:
        _check_n(self.n_sites)


def _check_n(n_sites: int) -> None:
    if not 2 <= n_sites <= MAX_TARGET_SITES:
        raise ValueError(f"n_sites must be in [2, {MAX_TARGET_SITES}]")


def _down_bits(n_sites: int) -> np.ndarray:
    # (2^N, N) table, True where a site is down in that spin configuration
    return site_levels(n_sites, 2) == SPIN_BASIS.index("down")


def complete_graph_state(
    n_sites: int, basis: LocalBasis = SPIN_BASIS
) -> np.ndarray:
    """Operator-product complete graph state.

    Amplitude 2^{-N/2} (-1)^{m(m-1)/2} on each configuration with m
    up-spins; the all-down amplitude is positive, which fixes the global
    phase of the serialized representative.
    """
    _check_n(n_sites)
    m = n_sites - np.sum(_down_bits(n_sites), axis=1)
    amps = ((-1.0) ** (m * (m - 1) // 2)) / np.sqrt(2.0**n_sites)
    return embed_spin_state(amps.astype(complex), n_sites, basis)


def cz_graph_state(n_sites: int, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
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
    return embed_spin_state(psi, n_sites, basis)


def plus_product_state(
    n_sites: int, phase: complex = 1.0, basis: LocalBasis = SPIN_BASIS
) -> np.ndarray:
    """(|up> + phase |down>)^{x N} / 2^{N/2} embedded in the given basis."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    if abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError("phase must be a unit complex number")
    if not (basis.has_level("up") and basis.has_level("down")):
        raise ValueError("basis lacks up/down levels")
    amps = np.ones(2**n_sites, dtype=complex)
    for down in _down_bits(n_sites).T:
        amps *= np.where(down, phase, 1.0)
    amps /= np.sqrt(2.0**n_sites)
    return embed_spin_state(amps, n_sites, basis)


def target_state(spec: TargetSpec, basis: LocalBasis = SPIN_BASIS) -> np.ndarray:
    if spec.form is TargetForm.OPERATOR_PRODUCT:
        return complete_graph_state(spec.n_sites, basis)
    if spec.form is TargetForm.CZ_CIRCUIT:
        return cz_graph_state(spec.n_sites, basis)
    raise ValueError(f"unknown target form {spec.form!r}")


def spin_config_labels(n_sites: int, basis: LocalBasis) -> list[str]:
    """Ket label per basis index, sites left to right, levels joined by '.'."""
    names = np.array(basis.levels)[site_levels(n_sites, basis.dim)]
    return [".".join(row) for row in names]


def state_to_json(state: np.ndarray, n_sites: int, basis: LocalBasis) -> str:
    """Serialize a state as a list of (basis label, re, im) triples.

    float repr round-trips every finite double exactly, so loading the
    string back reproduces the vector bit for bit.
    """
    labels = spin_config_labels(n_sites, basis)
    if state.size != len(labels):
        raise ValueError("state dimension does not match n_sites and basis")
    rows = [
        [labels[i], float(np.real(state[i])), float(np.imag(state[i]))]
        for i in range(state.size)
    ]
    return json.dumps(rows)


def state_from_json(text: str) -> np.ndarray:
    rows = json.loads(text)
    return np.array([complex(re, im) for _, re, im in rows])
