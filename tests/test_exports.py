"""Every public name a spingraph module exports still exists, so deleting a
function cannot leave a dangling entry in ``__all__``; and no module keeps
a top-level import it never reads, the check a linter would make."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spingraph

MODULES = sorted(f"spingraph.{info.name}" for info in pkgutil.iter_modules(spingraph.__path__))

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "spingraph").glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import json\nimport numpy as np\nfrom os import path, sep\n"
    source += "__all__ = ['sep']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["json", "path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_keeps_an_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
