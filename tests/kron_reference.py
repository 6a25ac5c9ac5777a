"""Dense kron-product reference for the index-built operators and states.

The package builds every operator and state from the site-level table
(``operators.site_levels``). The tests check those builders against this
module, which writes each one out as a sum of N-fold kron products of
local matrices, and against the literal constants below.
"""

import numpy as np

from spingraph.chain import C3, C6_DOWN, C6_UP, IdealModel
from spingraph.dynamics import GAMMA_DOWN, GAMMA_UP, JumpChannels
from spingraph.operators import (
    PROTOCOL_BASIS,
    SPIN_BASIS,
    LocalBasis,
    embed_local_operator,
    two_site_operator,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: The two emission channels at the Rydberg decay rates.
DEFAULT_JUMPS = JumpChannels(channels=(("up", "g", GAMMA_UP), ("down", "g", GAMMA_DOWN)))

#: Configuration per amplitude index of the printed N=3 closed form
#: (``analytic.analytic_n3_amplitudes``), site 0 first.
PRINTED_ORDER_LABELS = (
    "down.down.down",
    "down.down.up",
    "down.up.down",
    "down.up.up",
    "up.down.down",
    "up.down.up",
    "up.up.down",
    "up.up.up",
)


def spin_half_operator(op2: np.ndarray, basis: LocalBasis) -> np.ndarray:
    """A 2x2 spin operator written into the (up, down) rows and columns of
    a local basis; every other level gets zero rows and columns."""
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {op2.shape}")
    iu, idn = basis.index("up"), basis.index("down")
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    out[np.ix_((iu, idn), (iu, idn))] = op2
    return out


def level_projector(name: str, basis: LocalBasis) -> np.ndarray:
    """|name><name| on one site."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    i = basis.index(name)
    out[i, i] = 1.0
    return out


def level_transition(to_name: str, from_name: str, basis: LocalBasis) -> np.ndarray:
    """|to><from| on one site."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    out[basis.index(to_name), basis.index(from_name)] = 1.0
    return out


def embed_spin_state(psi2: np.ndarray, n_sites: int, basis: LocalBasis) -> np.ndarray:
    """A 2^N spin state on the (up, down) slots of a d^N space, as the sum
    of its amplitudes times the kron products of the local kets."""
    psi2 = np.asarray(psi2, dtype=complex)
    if psi2.size != 2**n_sites:
        raise ValueError(f"expected 2^{n_sites} amplitudes, got {psi2.size}")
    kets = {name: np.eye(basis.dim)[basis.index(name)] for name in SPIN_BASIS.levels}
    out = np.zeros(basis.dim**n_sites, dtype=complex)
    for code, amp in enumerate(psi2):
        ket = np.ones(1)
        for bit in format(code, f"0{n_sites}b"):
            ket = np.kron(ket, kets[SPIN_BASIS.levels[int(bit)]])
        out += amp * ket
    return out


def pair_strengths(geometry, i: int, j: int) -> tuple[float, float, float]:
    """(C3 (1 - 3 cos^2 theta), -C6_up, -C6_down) over the powers of
    R + delta_r, theta the angle of the undisplaced separation from z."""
    sep = geometry.positions[j] - geometry.positions[i]
    r = float(np.linalg.norm(sep))
    cos_t = float(sep[2] / r)
    r_eff = r + geometry.delta_r
    return C3 * (1.0 - 3.0 * cos_t**2) / r_eff**3, -C6_UP / r_eff**6, -C6_DOWN / r_eff**6


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
        h += kron_flip_flop(pair_strengths(geo, i, i + 1)[0], i, i + 1, n, basis)
    for i in range(n):
        for j in range(i + 1, n):
            dipole, *vdw = pair_strengths(geo, i, j)
            for level, shift in zip(("up", "down"), vdw):
                proj = level_projector(level, basis)
                h += shift * two_site_operator(proj, i, proj, j, n, basis)
            if j > i + 1:
                h += kron_flip_flop(dipole, i, j, n, basis)
    return h


def kron_control_hz(n, basis):
    sz_half = spin_half_operator(0.5 * SIGMA_Z, basis)
    return sum(embed_local_operator(sz_half, i, n, basis) for i in range(n))


def kron_drive_hamiltonian(drives, n_sites):
    """Sum over sites of the embedded local drive (rate/2)(|a><b| + h.c.)."""
    basis = PROTOCOL_BASIS
    h = np.zeros((basis.dim**n_sites,) * 2, dtype=complex)
    for name_a, name_b, rate in drives:
        local = 0.5 * rate * level_transition(name_a, name_b, basis)
        local += local.conj().T
        for site in range(n_sites):
            h += embed_local_operator(local, site, n_sites, basis)
    return h
