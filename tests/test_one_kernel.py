"""Every evolution a command runs goes through the package's one kernel,
``grape.ClosedFormPropagator``, and the spin path builds its drift sector
by sector (``grape.SpinSectors``).

The dense ``operators.evolve_unitary`` and ``chain.build_control_hz`` stay
in ``src/`` only because the benchmark's span tracer
(``perfbench/spans.py``, ``TARGETS``) wraps them by name; the tests use
them as the dense-expm oracle. So no module other than ``operators`` may
call ``evolve_unitary``, and no module may call ``build_control_hz``. The
dense drift ``chain.assemble_system`` is wrapped there too; only the RK4
integrator ``dynamics.evolve_master`` still uses it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spingraph"

#: dense name -> the one module allowed to use it (None: no module)
DENSE = {"evolve_unitary": "operators", "build_control_hz": None, "assemble_system": "dynamics"}


def dense_uses(package: Path) -> list[str]:
    """``module:line name`` for each import, call or attribute read of a
    dense name outside the module allowed to use it."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            out += [
                f"{path.stem}:{node.lineno} {name}"
                for name in names
                if name in DENSE and DENSE[name] != path.stem
            ]
    return out


def test_the_scan_finds_dense_propagation(tmp_path):
    (tmp_path / "operators.py").write_text(
        "def evolve_unitary(h, t, psi): pass\nevolve_unitary(1, 2, 3)\n", encoding="utf-8"
    )
    (tmp_path / "chain.py").write_text(
        "def build_control_hz(n): pass\ndef assemble_system(m): pass\n", encoding="utf-8"
    )
    (tmp_path / "a.py").write_text(
        "from .operators import evolve_unitary as run\nfrom . import chain\n"
        "run(chain.build_control_hz(3), 1.0, None)\n",
        encoding="utf-8",
    )
    uses_drift = "from .chain import assemble_system\nassemble_system(1)\n"
    (tmp_path / "b.py").write_text(uses_drift, encoding="utf-8")
    (tmp_path / "dynamics.py").write_text(uses_drift, encoding="utf-8")
    assert dense_uses(tmp_path) == [
        "a:1 evolve_unitary",
        "a:3 build_control_hz",
        "b:1 assemble_system",
        "b:2 assemble_system",
    ]


def test_no_command_path_propagates_densely():
    assert dense_uses(PACKAGE) == []
