"""Every closed-form kernel, of the spin path and of every protocol stage,
comes from one place in ``grape``. A stage's Hamiltonian is assembled
once, by ``grape._stage_terms`` (the drives, then ``chain.drift_terms``;
the spin path is the drive-free stage on the spin basis), its kernels are
built once, by ``grape._build_kernels`` (``BlockPattern.fill`` into one
``ClosedFormPropagator`` per block size), and memoised once, by
``grape._stage_kernels``, keyed on the stage's description. A protocol
stage gets its layout from one lookup, ``protocol._stage_layouts``.

So, in ``grape`` and ``protocol``:

* only ``_build_kernels`` names ``ClosedFormPropagator`` (defining the
  class is not naming it) or calls a ``.fill``;
* only ``_stage_terms`` and ``SpinSectors.__init__``, which evaluates a
  stack of geometries' drifts, name ``drift_terms``;
* only ``_stage_kernels`` names ``lru_cache`` or ``cache``: there is one
  kernel memo;
* in ``protocol``, only ``_stage_layouts`` names ``block_pattern`` or
  ``BlockPattern``;
* nothing names ``tobytes`` or ``frombuffer``: a memo key is a stage's
  description, not its arrays' bytes;
* no ``from`` import renames a name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spingraph"

#: kernel-building name -> the functions allowed to name it (none: empty)
OWNERS = {
    "ClosedFormPropagator": ("_build_kernels",),
    "fill": ("_build_kernels",),
    "drift_terms": ("_stage_terms", "SpinSectors.__init__"),
    "lru_cache": ("_stage_kernels",),
    "cache": ("_stage_kernels",),
    "tobytes": (),
    "frombuffer": (),
}

#: the same, for ``protocol`` only
PROTOCOL_OWNERS = {
    **OWNERS,
    "BlockPattern": ("_stage_layouts",),
    "block_pattern": ("_stage_layouts",),
}


def kernel_builds(source: str, owners: dict = OWNERS) -> list[str]:
    """``scope:line name`` for each use of a name of ``owners`` outside
    the functions that own it (``<module>`` for module level; an owner is
    a dotted path such as ``Class.method``, and covers what it nests), and
    ``scope:line name as alias`` for each renaming ``from`` import, in
    line order."""
    out = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        names = []
        where = scope[-1] if scope else "<module>"
        if isinstance(node, ast.ImportFrom):
            out.extend(
                f"{where}:{node.lineno} {alias.name} as {alias.asname}"
                for alias in node.names
                if alias.asname not in (None, alias.name)
            )
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        for name in names:
            allowed = [owner.split(".") for owner in owners.get(name, ())]
            if name in owners and not any(scope[: len(path)] == path for path in allowed):
                out.append(f"{where}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(out, key=lambda entry: int(entry.split()[0].split(":")[1]))


#: Every case either of the two earlier guards (one per module) flagged,
#: and a second memo.
SYNTHETIC = (
    "from .operators import ClosedFormPropagator as Kernel\n"
    "from .grape import ClosedFormPropagator\n"
    "from .operators import block_pattern as layout\n"
    "class ClosedFormPropagator:\n"
    "    pass\n"
    "def _build_kernels(layout, hz, coeffs, diagonals):\n"
    "    return [ClosedFormPropagator(h, hz[i]) for i, h in layout.fill(coeffs, diagonals)]\n"
    "class SpinSectors:\n"
    "    def __init__(self, model):\n"
    "        self._terms = drift_terms(model)\n"
    "    def _kernels(self, rows):\n"
    "        blocks = self._pattern.fill(self._coeffs[rows], self._diagonals[rows])\n"
    "        return [ClosedFormPropagator(h, self._hz[i]) for i, h in blocks]\n"
    "@functools.lru_cache(maxsize=32)\n"
    "def _sector_kernels(model, layout, coeffs):\n"
    "    return _memo(model, layout, coeffs.tobytes())\n"
    "def _memo(model, layout, data):\n"
    "    return _build_kernels(layout, 0, np.frombuffer(data), 0)\n"
    "kernel = grape.ClosedFormPropagator\n"
    "def _stage_layouts(terms, support):\n"
    "    return block_pattern(terms, 3, None, support)\n"
    "def _evolve(state, terms, coeffs, diagonal):\n"
    "    blocks = layout(terms, 3, None, [0]).fill(coeffs, diagonal)\n"
    "    return [grape.ClosedFormPropagator(h, 0) for _, h in blocks]\n"
    "def _stage_layout(terms):\n"
    "    return [block_pattern(terms, 3, None, [0])]\n"
    "def _stage_kernels_too(layout):\n"
    "    return _stage_layouts(layout).fill([], [])\n"
    "def _stage_terms(model, basis, drives):\n"
    "    return drift_terms(model, basis)\n"
    "def _evolve_too(state, geometry):\n"
    "    return chain.drift_terms(RydbergModel(geometry), PROTOCOL_BASIS)[1]\n"
    "@functools.lru_cache(maxsize=8)\n"
    "def _stage_kernels(layout, model, basis, drives, field):\n"
    "    return _build_kernels(layout, 0, *_stage_terms(model, basis, drives)[1:])\n"
    "_kernel_memo = functools.cache(_stage_kernels.__wrapped__)\n"
    "@lru_cache(8)\n"
    "def _post_core_kernels(layout, geometry, drives):\n"
    "    return _stage_kernels(layout, RydbergModel(geometry), None, drives, False)\n"
)

#: What ``kernel_builds`` finds in SYNTHETIC with either module's owners.
FLAGGED = [
    "<module>:1 ClosedFormPropagator as Kernel",
    "<module>:3 block_pattern as layout",
    "_kernels:12 fill",
    "_kernels:13 ClosedFormPropagator",
    "_sector_kernels:14 lru_cache",
    "_sector_kernels:16 tobytes",
    "_memo:18 frombuffer",
    "<module>:19 ClosedFormPropagator",
    "_evolve:23 fill",
    "_evolve:24 ClosedFormPropagator",
    "_stage_kernels_too:28 fill",
    "_evolve_too:32 drift_terms",
    "<module>:36 cache",
    "_post_core_kernels:37 lru_cache",
]

#: And, with ``protocol``'s, the layout lookups outside ``_stage_layouts``.
PROTOCOL_FLAGGED = FLAGGED[:10] + ["_stage_layout:26 block_pattern"] + FLAGGED[10:]


def test_the_scan_finds_kernel_builds():
    assert kernel_builds(SYNTHETIC) == FLAGGED
    assert kernel_builds(SYNTHETIC, PROTOCOL_OWNERS) == PROTOCOL_FLAGGED


@pytest.mark.parametrize(
    "module, owners", [("grape", OWNERS), ("protocol", PROTOCOL_OWNERS)], ids=["grape", "protocol"]
)
def test_only_the_builder_fills_and_decomposes_a_stage(module, owners):
    assert kernel_builds((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), owners) == []


def test_one_kernel_memo_in_both_modules():
    """``grape._stage_kernels`` is the only ``lru_cache`` of either module."""
    memos = [
        f"{module}.{node.name}"
        for module in ("grape", "protocol")
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert memos == ["grape._stage_kernels"]
