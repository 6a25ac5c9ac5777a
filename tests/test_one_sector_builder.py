"""Every spin-path kernel comes from one builder,
``grape._build_sector_kernels``: ``BlockPattern.fill`` into one
``grape.ClosedFormPropagator`` per block size. ``SpinSectors`` calls it
for a stack of geometry rows, and the ``grape._sector_kernels`` memo
calls it for a chain model's own drift, keyed on the chain's description
(the model and its layout), so a memoised kernel and a fresh one
decompose the same blocks the same way.

So no other function in ``grape`` may name ``ClosedFormPropagator``
(defining the class is not naming it) or call a ``.fill``, and ``grape``
may not import either under another name. No function may name
``tobytes`` or ``frombuffer``: a memo key is a chain's description, not
its arrays' bytes.
"""

import ast
from pathlib import Path

GRAPE = Path(__file__).resolve().parents[1] / "src" / "spingraph" / "grape.py"

#: kernel-building name -> the one function allowed to use it (None: none)
OWNERS = {
    "ClosedFormPropagator": "_build_sector_kernels",
    "fill": "_build_sector_kernels",
    "tobytes": None,
    "frombuffer": None,
}


def sector_builds(source: str) -> list[str]:
    """``scope:line name`` for each use of a kernel-building name outside
    the function that owns it (``<module>`` for module level), and for
    each import of one under another name."""
    out = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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


def test_the_scan_finds_sector_builds():
    source = (
        "from .operators import ClosedFormPropagator as Kernel\n"
        "class ClosedFormPropagator:\n"
        "    pass\n"
        "def _build_sector_kernels(layout, hz, coeffs, diagonals):\n"
        "    return [ClosedFormPropagator(h, hz[i]) for i, h in layout.fill(coeffs, diagonals)]\n"
        "class SpinSectors:\n"
        "    def _kernels(self, rows):\n"
        "        blocks = self._pattern.fill(self._coeffs[rows], self._diagonals[rows])\n"
        "        return [ClosedFormPropagator(h, self._hz[i]) for i, h in blocks]\n"
        "@functools.lru_cache(maxsize=32)\n"
        "def _sector_kernels(model, layout, coeffs):\n"
        "    return _memo(model, layout, coeffs.tobytes())\n"
        "def _memo(model, layout, data):\n"
        "    return _build_sector_kernels(layout, 0, np.frombuffer(data), 0)\n"
        "kernel = grape.ClosedFormPropagator\n"
    )
    assert sector_builds(source) == [
        "<module>:1 ClosedFormPropagator as Kernel",
        "_kernels:8 fill",
        "_kernels:9 ClosedFormPropagator",
        "_sector_kernels:12 tobytes",
        "_memo:14 frombuffer",
        "<module>:15 ClosedFormPropagator",
    ]


def test_only_the_builder_fills_and_decomposes_a_sector():
    assert sector_builds(GRAPE.read_text(encoding="utf-8")) == []
