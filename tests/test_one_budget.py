"""Every memory refusal is checked against one budget,
``operators.MAX_TRACE_STACK``, on the allocation it guards: a state
vector, the site-level table, a layout's index tables and block buffer,
a dense matrix or a stack of traces. The protocol's atom cap follows from
its stages' block layouts (``protocol._stage_layouts``), not from a cap
on the basis size.

So no module in ``src/`` may define or name ``MAX_STATE_DIM``, and
``check_trace_stack`` takes no budget: no module may define it with more
than its three parameters (counts, stack, unit) or one named ``budget``,
nor call it with a fourth positional argument or a ``budget`` keyword.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spingraph"

CHECK = "check_trace_stack"


def second_budgets(package: Path) -> list[str]:
    """``module:line what`` for each use of ``MAX_STATE_DIM`` and for each
    budget given to, or taken by, ``check_trace_stack``, in source order."""
    found = []
    for path in sorted(package.glob("*.py")):
        out = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = (path.stem, getattr(node, "lineno", 0))
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                names = []
            out += [(*where, "MAX_STATE_DIM") for name in names if name == "MAX_STATE_DIM"]
            if isinstance(node, ast.FunctionDef) and node.name == CHECK:
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if len(params) > 3 or "budget" in params:
                    out.append((*where, f"def {CHECK}({', '.join(params)})"))
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords = [k.arg for k in node.keywords]
                if called == CHECK and (len(node.args) > 3 or "budget" in keywords):
                    out.append((*where, f"budget passed to {CHECK}"))
        found += sorted(out)
    return [f"{module}:{line} {what}" for module, line, what in found]


def test_the_scan_finds_second_budgets(tmp_path):
    (tmp_path / "operators.py").write_text(
        "MAX_STATE_DIM = 5**6\n"
        "def check_trace_stack(counts, stack, unit='populations', budget=None):\n"
        "    pass\n"
        "check_trace_stack({'basis states': 1}, 'state', 'amplitudes', MAX_STATE_DIM)\n",
        encoding="utf-8",
    )
    (tmp_path / "protocol.py").write_text(
        "from . import operators\n"
        "from .operators import MAX_STATE_DIM as cap, check_trace_stack\n"
        "operators.check_trace_stack({'rows': 2}, 'stage', budget=operators.MAX_STATE_DIM)\n"
        "check_trace_stack({'rows': 2}, 'stage', 'amplitudes')\n",
        encoding="utf-8",
    )
    assert second_budgets(tmp_path) == [
        "operators:1 MAX_STATE_DIM",
        "operators:2 def check_trace_stack(counts, stack, unit, budget)",
        "operators:4 MAX_STATE_DIM",
        "operators:4 budget passed to check_trace_stack",
        "protocol:2 MAX_STATE_DIM",
        "protocol:3 MAX_STATE_DIM",
        "protocol:3 budget passed to check_trace_stack",
    ]


def test_every_memory_refusal_has_one_budget():
    assert second_budgets(PACKAGE) == []
