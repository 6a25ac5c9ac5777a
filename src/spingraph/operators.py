"""Dense linear algebra for tensor-product spin systems.

Site-local bases, the site-index table, operator embedding, exact
Hermitian propagation, and basis and product states. Everything here is a
pure function on numpy arrays; no internal mutability.

No command calls the two ``kron`` embeddings, ``embed_local_operator`` and
``two_site_operator``, nor the dense ``evolve_unitary`` and
``chain.build_control_hz``, and only ``dynamics.evolve_master`` calls the
dense drift ``chain.assemble_system`` (``tests/test_one_kernel.py`` holds
the last three to that). They stay because the benchmark's span tracer
(``perfbench/spans.py``, ``TARGETS``) wraps them by name; the tests build
their dense reference from them (``tests/kron_reference.py``).

Conventions
-----------
* Site 0 is the leftmost tensor factor, so kets read left to right: a
  basis index is the base-d number whose digits are the N site levels,
  site 0 most significant. ``site_levels`` is the single owner of that
  rule; every Hamiltonian, drive, jump and state is built from its table,
  mostly through ``transition_indices``. Both tables are memoised and
  returned read-only, so every caller shares one copy.
* A Hamiltonian is one ``chain.drift_terms`` triple: a coupling list (a
  tuple of terms, each a tuple of (site, to, from) triples on distinct
  sites), its coefficients and a real diagonal. ``BlockPattern`` fills the
  blocks a state reaches, one stack per block size; the dense
  ``hermitian_sum`` is their reference. The memos key on the immutable
  terms as they are; ``block_pattern`` shares one layout per (terms, support).
* One memory budget, MAX_TRACE_STACK entries, refused by
  ``check_trace_stack`` before the allocation it guards: a state vector,
  the site-level table, a ``BlockPattern``'s index tables and buffer, a
  dense d^N x d^N matrix, or a stack of traces (an ensemble's
  populations, a drift's sector returns, a protocol stage's states). The
  work caps ``targets.MAX_TARGET_SITES``, ``grape.MAX_SCAN_STEPS``,
  ``dynamics.MAX_TOTAL_SUBSTEPS`` and ``dynamics.CHUNK_ELEMENTS`` bound
  run time and chunk size, not an allocation.
* ``sigma_z |up> = +|up>`` and ``S_z = sigma_z / 2``.
* hbar = 1. Energies and Rabi rates are angular frequencies in rad/us,
  times in us. A value quoted as "2 pi x f MHz" enters as 2*pi*f rad/us.
  The ideal chain mode instead uses dimensionless units with J = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LocalBasis",
    "SPIN_BASIS",
    "EMISSION_BASIS",
    "PROTOCOL_BASIS",
    "embed_local_operator",
    "two_site_operator",
    "site_levels",
    "Term",
    "transition_indices",
    "hermitian_sum",
    "BlockPattern",
    "block_pattern",
    "evolve_unitary",
    "basis_state",
    "product_state",
    "check_hermitian",
    "check_trace_stack",
]

#: Largest allocation a budget check lets through, in entries: 80 MB of
#: floats, 160 MB of complex values.
MAX_TRACE_STACK = 10**7

HERMITICITY_TOL = 1e-9

#: One term: a (site, to, from) triple per acted-on site, each site once.
Term = tuple[tuple[int, str, str], ...]


@dataclass(frozen=True)
class LocalBasis:
    """Ordered set of named site levels.

    The position of each name in ``levels`` is its basis index; that
    ordering is part of the public contract and is relied on by every
    index-built operator and state.
    """

    levels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.levels)

    def index(self, name: str) -> int:
        """Basis index of a named level. Raises KeyError for unknown names."""
        try:
            return self.levels.index(name)
        except ValueError:
            raise KeyError(f"level {name!r} not in basis {self.levels}") from None

    def has_level(self, name: str) -> bool:
        return name in self.levels

    def __post_init__(self) -> None:
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("level names must be unique")
        if self.dim not in (2, 3, 5):
            raise ValueError(f"unsupported local dimension {self.dim}")


#: Bare spin-1/2 site: index 0 = "up", index 1 = "down".
SPIN_BASIS = LocalBasis(("up", "down"))

#: Spin-1/2 plus an empty ground level "g" that collects spontaneous
#: emission: indices (up, down, g) = (0, 1, 2).
EMISSION_BASIS = LocalBasis(("up", "down", "g"))

#: Clock states, spin levels, and the auxiliary decoupling level:
#: indices (0, 1, up, down, r) = (0, 1, 2, 3, 4).
PROTOCOL_BASIS = LocalBasis(("0", "1", "up", "down", "r"))


def embed_local_operator(
    op: np.ndarray, site: int, n_sites: int, basis: LocalBasis
) -> np.ndarray:
    """I x ... x op x ... x I with ``op`` at tensor position ``site``.

    Parameters
    ----------
    op : (d, d) array with d = basis.dim.
    site : which factor carries the operator; site 0 is leftmost.
    n_sites : total number of sites.
    basis : local basis fixing d.
    """
    op = np.asarray(op, dtype=complex)
    d = basis.dim
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match local dim {d}")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    dim = d**n_sites
    check_trace_stack({"rows": dim, "columns": dim}, "matrix", "entries")
    left = np.eye(d**site, dtype=complex)
    right = np.eye(d ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def two_site_operator(
    op_a: np.ndarray,
    site_a: int,
    op_b: np.ndarray,
    site_b: int,
    n_sites: int,
    basis: LocalBasis,
) -> np.ndarray:
    """Embedded product op_a(site_a) op_b(site_b) for distinct sites."""
    if site_a == site_b:
        raise ValueError("sites must be distinct")
    d, dim = basis.dim, basis.dim**n_sites
    check_trace_stack({"rows": dim, "columns": dim}, "matrix", "entries")
    factors = [np.eye(d, dtype=complex)] * n_sites
    factors[site_a] = np.asarray(op_a, dtype=complex)
    factors[site_b] = np.asarray(op_b, dtype=complex)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@functools.lru_cache(maxsize=16)
def site_levels(n_sites: int, d: int) -> np.ndarray:
    """(d**N, N) table: row k holds the site levels of basis state k, in
    C order (site 0 most significant). Memoised and read-only. Refuses a
    table of d^N x N entries beyond MAX_TRACE_STACK."""
    check_trace_stack({"basis states": d**n_sites, "sites": n_sites}, "table", "entries")
    return _read_only(np.arange(d**n_sites)[:, None] // _place_values(n_sites, d) % d)


@functools.lru_cache(maxsize=256)
def transition_indices(
    n_sites: int, basis: LocalBasis, term: Term
) -> tuple[np.ndarray, np.ndarray]:
    """Index form of a product of single-site transitions |to><from|.

    ``term`` holds one (site, to, from) triple per acted-on site, each site
    once; the other sites carry the identity. Returns (dst, src), src
    ascending, such that the operator is sum_k |dst_k><src_k|; to == from
    on every site gives a projector (dst == src). Memoised per (n_sites,
    basis, term); both arrays are read-only.
    """
    sites = [site for site, _, _ in term]
    if len(set(sites)) != len(sites):
        raise ValueError(f"a term names each site once, not {sites}")
    levels = site_levels(n_sites, basis.dim)
    to = np.array([basis.index(name) for _, name, _ in term], dtype=int)
    frm = np.array([basis.index(name) for _, _, name in term], dtype=int)
    src = np.flatnonzero(np.all(levels[:, sites] == frm, axis=1))
    return _read_only(src + (to - frm) @ _place_values(n_sites, basis.dim)[sites]), _read_only(src)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def hermitian_sum(
    terms: Sequence[Term],
    coeffs: Sequence[complex],
    diagonal: np.ndarray,
    n_sites: int,
    basis: LocalBasis,
) -> np.ndarray:
    """Dense h = sum of coeff T + h.c. over the (terms, coeffs) pairs,
    plus diag(diagonal) added last, where T is the product of single-site
    transitions of a term (see ``transition_indices``). Refuses an
    over-budget matrix before any d^N x d^N allocation."""
    dim = basis.dim**n_sites
    check_trace_stack({"rows": dim, "columns": dim}, "matrix", "entries")
    h = np.zeros((dim, dim), dtype=complex)
    for term, coeff in zip(terms, coeffs, strict=True):
        dst, src = transition_indices(n_sites, basis, term)
        h[dst, src] += coeff
        h[src, dst] += np.conj(coeff)
    h[np.diag_indices(dim)] += diagonal
    return h


class BlockPattern:
    """Where the entries of the blocks of a ``hermitian_sum`` land, for
    one list of terms; ``fill`` sums any coefficients and diagonal into
    them, so a stack of Hamiltonians that share their terms shares one
    pattern.

    The terms' transitions join basis indices into connected components,
    and h has no entry between two components. Each component holding an
    index of ``support`` gives one block: its indices ascending, and its
    matrix equal to h[np.ix_(idx, idx)], each entry summed in the same
    order as ``hermitian_sum`` does. Blocks of one size k, S of them, are
    kept together as one (S, k, k) stack, so one gufunc call decomposes
    them all: ``indices`` holds one (S, k) index array per size, sizes
    ascending, blocks within a size in the order of their smallest index.
    ``reached`` holds the indices of all those blocks, ascending. Refuses
    its three d^N index tables, and a filled buffer (every block's k^2
    entries), beyond MAX_TRACE_STACK, before allocating them. Every array
    a pattern holds is read-only, so one pattern can be shared: callers
    take theirs from ``block_pattern``, which memoises them.
    """

    def __init__(self, terms: Sequence[Term], n_sites: int, basis: LocalBasis, support):
        dim = basis.dim**n_sites
        check_trace_stack({"index tables": 3, "basis states": dim}, "layout", "entries")
        edges = [transition_indices(n_sites, basis, term) for term in terms]
        labels = _component_labels(dim, edges)
        reached = np.isin(labels, labels[support])
        rows = self.reached = _read_only(np.flatnonzero(reached))
        # by block size, then by block; lexsort is stable, so each block's
        # indices stay ascending
        block_size = np.bincount(labels[rows])[labels[rows]]
        rows = rows[np.lexsort((labels[rows], block_size))]
        starts = np.flatnonzero(np.diff(labels[rows], prepend=-1))
        sizes = np.diff(starts, append=len(rows))
        self._size = int(np.sum(sizes**2))
        check_trace_stack({"block entries": self._size}, "block", "entries")
        # all blocks side by side in one flat buffer, equal sizes adjacent: a
        # reached index's block starts at offset[index], has width[index]
        # rows, and holds it at pos[index]
        first = np.cumsum(sizes**2) - sizes**2
        block = np.repeat(np.arange(len(sizes)), sizes)
        offset, width, pos = np.zeros((3, dim), dtype=int)
        offset[rows] = first[block]
        width[rows] = sizes[block]
        pos[rows] = np.arange(len(rows)) - starts[block]
        # flat positions of each term's entries and of their conjugates
        self._entries = []
        for dst, src in edges:
            keep = reached[src]
            dst, src = dst[keep], src[keep]
            self._entries.append((
                _read_only(offset[src] + pos[dst] * width[src] + pos[src]),
                _read_only(offset[src] + pos[src] * width[src] + pos[dst]),
            ))
        self._rows = _read_only(rows)
        self._diagonal = _read_only(offset[rows] + pos[rows] * (width[rows] + 1))
        # the S blocks of size k are adjacent in rows and in the buffer
        distinct, group, depths = np.unique(sizes, return_index=True, return_counts=True)
        self.indices = tuple(
            rows[starts[b] : starts[b] + s * k].reshape(s, k)
            for b, s, k in zip(group, depths, distinct)
        )
        self._spans = list(zip(first[group], depths, distinct))

    def fill(self, coeffs: Sequence[complex], diagonal: np.ndarray) -> list[tuple]:
        """The (idx, blocks) pairs of h = sum of coeff T + h.c. over the
        pattern's terms, plus diag(diagonal): one pair per block size k,
        idx the (S, k) ``indices`` and blocks the (S, k, k) stack, a view
        of one buffer. A (G, M) coefficient stack with a (G, dim) diagonal
        stack gives (G, S, k, k) stacks, one row per Hamiltonian. The
        blocks take the dtype of the coefficients and diagonal, at least
        float64: real ones give real symmetric blocks, whose ``eigh`` is
        the real-symmetric driver with real eigenvectors, and complex ones
        give complex Hermitian blocks."""
        coeffs, diagonal = np.asarray(coeffs), np.asarray(diagonal)
        stack = diagonal.shape[:-1]
        flat = np.zeros(stack + (self._size,), dtype=np.result_type(coeffs, diagonal, float))
        for m, (entry, mirror) in enumerate(self._entries):
            flat[..., entry] += coeffs[..., m, None]
            flat[..., mirror] += np.conj(coeffs[..., m, None])
        flat[..., self._diagonal] += diagonal[..., self._rows]
        blocks = [
            flat[..., f : f + s * k * k].reshape(stack + (s, k, k)) for f, s, k in self._spans
        ]
        return list(zip(self.indices, blocks))


def block_pattern(terms: Sequence[Term], n_sites: int, basis: LocalBasis, support) -> BlockPattern:
    """The ``BlockPattern`` of these terms and support indices, built once
    and then shared. Memoised per (terms, n_sites, basis, support), the
    last 32 of them: a layout is a pure index structure, the same for
    every coefficient set, so a protocol stage or a spin-sector sum that
    recurs on one chain reuses it."""
    return _block_pattern(tuple(terms), n_sites, basis, np.asarray(support, np.intp).tobytes())


@functools.lru_cache(maxsize=32)
def _block_pattern(terms: tuple, n_sites: int, basis: LocalBasis, support: bytes) -> BlockPattern:
    return BlockPattern(terms, n_sites, basis, np.frombuffer(support, dtype=np.intp))


def _component_labels(dim: int, edges: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Smallest index of each basis index's connected component under the
    (dst, src) edges: min-label propagation with pointer jumping. Every
    label stays inside its component and only falls, so the loop ends with
    one label, the component's smallest index, per component."""
    labels = np.arange(dim)
    if not edges:
        return labels
    dst = np.concatenate([d for d, _ in edges])
    src = np.concatenate([s for _, s in edges])
    while not np.array_equal(labels[dst], labels[src]):
        low = np.minimum(labels[dst], labels[src])
        np.minimum.at(labels, dst, low)
        np.minimum.at(labels, src, low)
        labels = labels[labels]
    return labels


def _place_values(n_sites: int, d: int) -> np.ndarray:
    # a basis index is its site levels dotted with these: site 0 is the
    # most significant base-d digit
    return d ** np.arange(n_sites - 1, -1, -1)


def check_hermitian(h: np.ndarray) -> None:
    """Raise if ``h`` is not Hermitian within HERMITICITY_TOL or has NaN/Inf
    entries."""
    if not np.all(np.isfinite(h)):
        raise ValueError("operator has NaN or Inf entries")
    dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"operator not Hermitian: max|H - H^dag| = {dev:.3e}")


def evolve_unitary(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i h t) psi via spectral decomposition of Hermitian h.

    Exact to floating point at these dimensions; there is no step-size
    error to control. Norm is preserved to 1e-10.
    """
    check_hermitian(h)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ValueError(
            f"state dim {psi.shape} does not match operator dim {h.shape[0]}"
        )
    if t == 0.0:
        return psi.copy()
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))


def basis_state(labels: Sequence[str], basis: LocalBasis) -> np.ndarray:
    """Computational basis ket |l_0 l_1 ... l_{N-1}> (site 0 leftmost)."""
    n = len(labels)
    d = basis.dim
    check_trace_stack({"basis states": d**n}, "state", "amplitudes")
    levels = np.array([basis.index(name) for name in labels], dtype=int)
    out = np.zeros(d**n, dtype=complex)
    out[levels @ _place_values(n, d)] = 1.0
    return out


def product_state(local: np.ndarray, n_sites: int) -> np.ndarray:
    """N-fold tensor power of one normalized single-site vector."""
    local = np.asarray(local, dtype=complex)
    out = np.ones(local.size**n_sites, dtype=complex)
    for column in site_levels(n_sites, local.size).T:
        out *= local[column]
    return out


def check_trace_stack(counts: dict[str, int], stack: str, unit: str = "populations") -> None:
    """Refuse a ``stack`` of as many entries as the product of ``counts``
    (name -> count) beyond MAX_TRACE_STACK ``unit``, read at each call,
    naming each count; callers check before they allocate the stack."""
    if math.prod(counts.values()) > MAX_TRACE_STACK:
        sizes = " x ".join(f"{count} {name}" for name, count in counts.items())
        raise ValueError(f"{sizes} exceed the {stack} budget of {MAX_TRACE_STACK} {unit}")
