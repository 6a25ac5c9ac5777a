"""Every function the benchmark's span tracer wraps still exists, and every
attribute it reads from a call still reads on real objects.

``perfbench/spans.py`` wraps each ``(module, name)`` of its ``TARGETS`` with
``getattr``, so a renamed or moved function makes every traced run raise.
Its attribute functions read fields of the call's arguments and result
(``GrapeResult.iterations``, ``ProtocolStage.uses_core_schedule``, the
``eigh`` input's shape), so renaming one of those breaks traced runs too.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from spingraph.chain import ChainGeometry
from spingraph.operators import PROTOCOL_BASIS, basis_state
from spingraph.protocol import standard_plan

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module_name, attr_name, *_ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr_name, None)), f"{module_name}.{attr_name}"


def test_every_call_attribute_reads_real_objects(core_result):
    attrs = {span: attr for _, _, span, attr in load_spans().TARGETS if attr is not None}
    assert set(attrs) == {"grape.optimize", "linalg.eigh", "protocol.run_stage"}

    assert attrs["grape.optimize"]((), {}, core_result) == [
        len(core_result.phi_history) - 1,
        core_result.converged,
    ]

    h = np.diag([1.0, 2.0, 3.0])
    assert attrs["linalg.eigh"]((h,), {}, None) == 3
    assert attrs["linalg.eigh"]((), {"a": h}, None) == 3

    plan = standard_plan(ChainGeometry.regular(2), core_result.schedule)
    state = basis_state(["0", "0"], PROTOCOL_BASIS)
    kinds = [attrs["protocol.run_stage"]((state, stage, plan), {}, None) for stage in plan.stages]
    assert kinds == ["drive", "drive", "core", "drive", "drive"]
    core = plan.stages[2]
    assert attrs["protocol.run_stage"]((state,), {"stage": core, "plan": plan}, None) == "core"
