"""Every defaulted parameter of a spingraph function is set by some call in
the package or the benchmark, so no default stands for an option that no
caller takes.

A call sets a parameter by keyword or by position; a ``*args`` in the call
may set every position from its own on, and a ``**kwargs`` every parameter.
Calls are matched to definitions by name, through ``import ... as``
aliases; a call of a class is a call of its ``__init__``, and a method's
positions start after ``self`` or ``cls``. Methods are reported as
``module.Class.method``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spingraph"

#: ``module.function(parameter)`` -> why its default stays although no call
#: sets it
ALLOWED = {
    "chain.build_control_hz(basis)": "held for `spans.TARGETS`",
    "dynamics.evolve_master(target)": "held for `spans.TARGETS`",
}


def defaulted_parameters(tree: ast.Module):
    """(name, called as, parameter, position or None if keyword-only) for
    each parameter with a default of every def in the module, nested ones
    too. A method is named ``Class.method``; an ``__init__`` is called as
    its class."""
    methods = {
        id(node): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        name, called = node.name, node.name
        skip = 0
        if id(node) in methods:
            cls = methods[id(node)]
            name = f"{cls}.{node.name}"
            called = cls if node.name == "__init__" else node.name
            skip = 0 if any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list) else 1
        for arg in positional[len(positional) - len(args.defaults):]:
            yield name, called, arg.arg, positional.index(arg) - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, called, arg.arg, None


def set_parameters(trees) -> set[tuple[str, str | int]]:
    """(function, keyword or position) for every argument of every call;
    (function, "**") and (function, ("*", position)) for unpacked ones."""
    aliases = {
        alias.asname: alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = aliases.get(name, name)
            for position, arg in enumerate(node.args):
                out.add((name, ("*", position) if isinstance(arg, ast.Starred) else position))
            out |= {(name, kw.arg if kw.arg is not None else "**") for kw in node.keywords}
    return out


def unset_defaults(package: Path, benchmark: Path) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of
    ``package`` that no call in ``package`` or ``benchmark`` sets."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    scripts = [ast.parse(path.read_text(encoding="utf-8")) for path in benchmark.rglob("*.py")]
    calls = set_parameters([*trees.values(), *scripts])
    out = []
    for module, tree in sorted(trees.items()):
        for function, called, parameter, position in defaulted_parameters(tree):
            unpacked = position is not None and any(
                (called, ("*", p)) in calls for p in range(position + 1)
            )
            if not (
                (called, parameter) in calls
                or (called, position) in calls
                or (called, "**") in calls
                or unpacked
            ):
                out.append(f"{module}.{function}({parameter})")
    return out


def test_the_scan_finds_a_default_no_call_sets(tmp_path):
    package, benchmark = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmark.mkdir()
    (package / "a.py").write_text(
        "def by_keyword(x, scale=1.0): pass\n"
        "def by_position(x, scale=1.0): pass\n"
        "def unset(x, scale=1.0, *, mode='a'): pass\n"
        "def unpacked(x, y=0, z=0): pass\n"
        "def benched(x, limit=None): pass\n"
        "def renamed(x, flag=False): pass\n"
        "class Box:\n"
        "    def __init__(self, x, size=2): pass\n"
        "    def method(self, x, size=2): pass\n"
        "    def other(self, x, size=2): pass\n"
        "class Crate:\n"
        "    def __init__(self, x, size=2): pass\n"
        "def outer():\n"
        "    def inner(v, _label='x'): pass\n"
        "    inner(1)\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text(
        "from .a import by_keyword, by_position, unset, unpacked, renamed as r, Box, Crate\n"
        "by_keyword(1, scale=2.0)\n"
        "by_position(1, 2.0)\n"
        "unset(1)\n"
        "unpacked(*(1, 2))\n"
        "r(1, True)\n"
        "Box(1, 3).method(1, 3)\n"
        "Box(1).other(1)\n"
        "Crate(1)\n",
        encoding="utf-8",
    )
    (benchmark / "run.py").write_text(
        "from pkg import a\na.benched(1, **{'limit': 3})\n", encoding="utf-8"
    )
    assert unset_defaults(package, benchmark) == [
        "a.unset(scale)",
        "a.unset(mode)",
        "a.Box.other(size)",
        "a.Crate.__init__(size)",
        "a.inner(_label)",
    ]


def test_every_default_is_set_by_some_call():
    unset = unset_defaults(PACKAGE, ROOT / "perfbench")
    assert sorted(set(unset) - set(ALLOWED)) == []
    # an entry whose default a call now sets, or whose function is gone, leaves
    assert sorted(set(ALLOWED) - set(unset)) == []
