"""Every protocol stage gets its Hamiltonian from one assembler,
``protocol._stage_terms`` (the drives, then ``chain.drift_terms``), its
layout from one lookup, ``protocol._stage_layouts``
(``operators.block_pattern`` on the stage's terms), and its kernels from
one builder, ``protocol._stage_kernels``: ``BlockPattern.fill`` into one
``grape.ClosedFormPropagator`` per block size. A full run and
``run_stage`` share that lookup, and the post-core memo wraps that
builder, keyed on the stage's description, so a fresh run and a
memoised one decompose the same blocks the same way.

So no other function in ``protocol`` may name ``drift_terms``,
``BlockPattern`` or ``block_pattern``, nor ``ClosedFormPropagator`` or
call a ``.fill``, and ``protocol`` may not import those names under
another name. No function may name ``tobytes`` or ``frombuffer``: a memo
key is a stage's description, not its arrays' bytes.
"""

import ast
from pathlib import Path

PROTOCOL = Path(__file__).resolve().parents[1] / "src" / "spingraph" / "protocol.py"

#: kernel-building name -> the one function allowed to use it (None: none)
OWNERS = {
    "drift_terms": "_stage_terms",
    "BlockPattern": "_stage_layouts",
    "block_pattern": "_stage_layouts",
    "ClosedFormPropagator": "_stage_kernels",
    "fill": "_stage_kernels",
    "tobytes": None,
    "frombuffer": None,
}


def kernel_builds(source: str) -> list[str]:
    """``scope:line name`` for each use of a kernel-building name outside
    the function that owns it (``<module>`` for module level), and for
    each import of one under another name."""
    out = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        names = []
        if isinstance(node, ast.ImportFrom):
            out.extend(
                f"{scope[-1]}:{node.lineno} {alias.name} as {alias.asname}"
                for alias in node.names
                if alias.name in OWNERS and alias.asname not in (None, alias.name)
            )
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        out.extend(
            f"{scope[-1]}:{node.lineno} {name}"
            for name in names
            if name in OWNERS and OWNERS[name] not in scope
        )
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ["<module>"])
    return out


def test_the_scan_finds_kernel_builds():
    source = (
        "from .grape import ClosedFormPropagator\n"
        "from .operators import block_pattern as layout\n"
        "def _stage_layouts(terms, support):\n"
        "    return block_pattern(terms, 3, None, support)\n"
        "def _stage_kernels(layout, coeffs, diagonal):\n"
        "    return [ClosedFormPropagator(h, 0) for _, h in layout.fill(coeffs, diagonal)]\n"
        "def _evolve(state, terms, coeffs, diagonal):\n"
        "    blocks = layout(terms, 3, None, [0]).fill(coeffs, diagonal)\n"
        "    return [grape.ClosedFormPropagator(h, 0) for _, h in blocks]\n"
        "def _stage_layout(terms):\n"
        "    return [block_pattern(terms, 3, None, [0])]\n"
        "def _stage_kernels_too(layout):\n"
        "    return _stage_layouts(layout).fill([], [])\n"
        "kernel = ClosedFormPropagator\n"
        "def _stage_terms(drives, geometry):\n"
        "    return drift_terms(RydbergModel(geometry), PROTOCOL_BASIS)\n"
        "def _evolve_too(state, geometry):\n"
        "    return chain.drift_terms(RydbergModel(geometry), PROTOCOL_BASIS)[1]\n"
        "def _kernel_memo(layout, coeffs):\n"
        "    return _memo(layout, coeffs.tobytes())\n"
        "def _memo(layout, data):\n"
        "    return _stage_kernels(layout, np.frombuffer(data), [])\n"
    )
    assert kernel_builds(source) == [
        "<module>:2 block_pattern as layout",
        "_evolve:8 fill",
        "_evolve:9 ClosedFormPropagator",
        "_stage_layout:11 block_pattern",
        "_stage_kernels_too:13 fill",
        "<module>:14 ClosedFormPropagator",
        "_evolve_too:18 drift_terms",
        "_kernel_memo:20 tobytes",
        "_memo:22 frombuffer",
    ]


def test_only_the_builder_fills_and_decomposes_a_stage():
    assert kernel_builds(PROTOCOL.read_text(encoding="utf-8")) == []
