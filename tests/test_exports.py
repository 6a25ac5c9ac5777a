"""Every public name a spingraph module exports still exists, so deleting a
function cannot leave a dangling entry in ``__all__``; every exported name
is read by the package itself or by the benchmark, so the package ships no
code that only its tests call; and no module keeps a top-level import it
never reads, the check a linter would make."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import spingraph

MODULES = sorted(f"spingraph.{info.name}" for info in pkgutil.iter_modules(spingraph.__path__))

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spingraph"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def readers(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(name, enclosing top-level function or class, or None) for every
    name the module reads: as a name, an attribute or an imported name."""
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                out |= {(alias.name, owner) for alias in node.names}
    return out


def unread_exports(package: Path, benchmark: Path) -> list[str]:
    """``module.name`` for each ``__all__`` name that no module of
    ``package`` reads outside the name's own definition and that no script
    in ``benchmark`` names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    read_by = {}
    for module, tree in trees.items():
        for name, owner in readers(tree):
            read_by.setdefault(name, set()).add((module, owner))
    scripts = "\n".join(path.read_text(encoding="utf-8") for path in benchmark.rglob("*.py"))
    return [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in exported_names(tree)
        if read_by.get(name, set()) <= {(module, name)}
        and not re.search(rf"\b{name}\b", scripts)
    ]


def test_the_scan_finds_an_export_only_tests_read(tmp_path):
    package, benchmark = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    benchmark.mkdir()
    (package / "a.py").write_text(
        "__all__ = ['used', 'recursive', 'benched', 'unread']\n"
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def benched(): pass\n"
        "unread = 1\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text("from .a import used\nused()\n", encoding="utf-8")
    (benchmark / "spans.py").write_text("TARGETS = (('pkg.a', 'benched'),)\n", encoding="utf-8")
    assert unread_exports(package, benchmark) == ["a.recursive", "a.unread"]


def test_every_export_is_read_by_the_package_or_the_benchmark():
    assert unread_exports(PACKAGE, ROOT / "perfbench") == []


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression of
    the module reads and that ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(exported_names(tree))
    return [name for name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import json\nimport numpy as np\nfrom os import path, sep\n"
    source += "__all__ = ['sep']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["json", "path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_keeps_an_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
