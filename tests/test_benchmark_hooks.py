"""Every function the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` wraps each ``(module, name)`` of its ``TARGETS`` with
``getattr``, so a renamed or moved function makes every traced run raise.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr_name, *_ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr_name, None)), f"{module_name}.{attr_name}"
