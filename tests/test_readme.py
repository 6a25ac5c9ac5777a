"""The README's Python example and Quick start commands run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from spingraph.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    population, converged = capsys.readouterr().out.split()
    assert float(population) > 0.99
    assert converged == "True"


def quick_start_commands() -> list[list[str]]:
    """The argument lists of the Quick start shell block, one per command."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_quick_start_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = quick_start_commands()
    assert [args[:2] for args in commands] == [
        ["spingraph", "optimize"], ["spingraph", "table"], ["spingraph", "master"]
    ]
    assert "--schedule" in commands[-1]
    runner = CliRunner()
    for args in commands:
        result = runner.invoke(main, args[1:])
        assert result.exit_code == 0, f"{shlex.join(args)}\n{result.output}"
    assert {"core.json", "table1.csv", "n3_summary.json"} <= {p.name for p in tmp_path.iterdir()}
