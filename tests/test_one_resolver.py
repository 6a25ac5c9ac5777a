"""Every command that runs on a schedule learns its run's size in one
place, ``cli._resolve_schedule``: it reads and checks a ``--schedule``
record (or takes the guess's slice count), checks the command's budget,
and only then makes the output paths and, without a file, optimizes.

So no other function in ``cli`` may use the schedule readers
``grape.load_result`` and ``grape.schedule_from_record``, and ``cli`` may
not import them under another name.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "spingraph" / "cli.py"

READERS = {"load_result", "schedule_from_record"}
RESOLVER = "_resolve_schedule"


def schedule_reads(source: str) -> list[str]:
    """``scope:line name`` for each use of a schedule reader outside the
    resolver (``<module>`` for module level), and for each import of one
    under another name."""
    out = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        names = []
        if isinstance(node, ast.ImportFrom):
            out.extend(
                f"{scope[-1]}:{node.lineno} {alias.name} as {alias.asname}"
                for alias in node.names
                if alias.name in READERS and alias.asname not in (None, alias.name)
            )
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        if RESOLVER not in scope:
            out.extend(f"{scope[-1]}:{node.lineno} {name}" for name in names if name in READERS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ["<module>"])
    return out


def test_the_scan_finds_schedule_reads():
    source = (
        "from .grape import load_result, schedule_from_record as read\n"
        "from . import grape\n"
        "def _resolve_schedule(cfg, path):\n"
        "    def inner():\n"
        "        return load_result(path)\n"
        "    return schedule_from_record(inner())\n"
        "def cmd_master(path):\n"
        "    record = grape.load_result(path)\n"
        "    return read(record)\n"
        "def cmd_noise(path):\n"
        "    reader = schedule_from_record\n"
        "table = load_result('t.json')\n"
    )
    assert schedule_reads(source) == [
        "<module>:1 schedule_from_record as read",
        "cmd_master:8 load_result",
        "cmd_noise:11 schedule_from_record",
        "<module>:12 load_result",
    ]


def test_only_the_resolver_reads_a_schedule():
    assert schedule_reads(CLI.read_text(encoding="utf-8")) == []
