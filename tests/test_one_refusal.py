"""Every refusal a command makes reaches the user one way: a command raises
``ValueError`` (or an ``OSError`` escapes it), and ``cli._Commands.invoke``
alone turns it into ``click.ClickException("<command> failed: ...")``, so
every refusal prints one line, ``Error: <command> failed: <reason>``.

So no other code in ``cli`` may name ``ClickException``, and ``cli`` may
not define a ``_fail`` helper that would print a refusal without the
command's name.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "spingraph" / "cli.py"

PRINTER = "_Commands.invoke"


def other_printers(source: str) -> list[str]:
    """``scope:line what`` for each use of ``ClickException`` outside
    ``_Commands.invoke`` (scopes joined by dots, ``<module>`` for module
    level) and for each definition of ``_fail``."""
    out = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "_fail":
                out.append(f"{'.'.join(scope)}:{node.lineno} def _fail")
            scope = [*scope, node.name]
        names = []
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        if ".".join(scope[1:]) != PRINTER:
            out.extend(
                f"{'.'.join(scope)}:{node.lineno} {name}"
                for name in names
                if name == "ClickException"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ["<module>"])
    return out


def test_the_scan_finds_other_printers():
    source = (
        "import click\n"
        "from click import ClickException as Refusal\n"
        "def _fail(message):\n"
        "    raise click.ClickException(message)\n"
        "class _Commands(click.Group):\n"
        "    def invoke(self, ctx):\n"
        "        raise click.ClickException('command failed')\n"
        "    def other(self):\n"
        "        def _fail():\n"
        "            return ClickException\n"
    )
    assert other_printers(source) == [
        "<module>:2 ClickException",
        "<module>:3 def _fail",
        "<module>._fail:4 ClickException",
        "<module>._Commands.other:9 def _fail",
        "<module>._Commands.other._fail:10 ClickException",
    ]


def test_only_the_command_group_prints_a_refusal():
    assert other_printers(CLI.read_text(encoding="utf-8")) == []
