"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every name in the spingraph modules that refers to the original,
because several are imported by name (``assemble_system`` in grape,
dynamics and protocol; ``optimize`` in the CLI as ``run_optimize``).
``numpy.linalg.eigh`` is wrapped as the kernel the layers call. Spans
stay in memory with parent links; self time is a span's duration minus
its direct children's durations (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
from time import perf_counter

import numpy.linalg  # noqa: F401  (install looks it up in sys.modules)


def _optimize_attr(args, kwargs, result):
    return [result.iterations, bool(result.converged)]


def _eigh_attr(args, kwargs, result):
    return int((args[0] if args else kwargs["a"]).shape[0])


def _stage_attr(args, kwargs, result):
    stage = args[1] if len(args) > 1 else kwargs["stage"]
    return "core" if stage.uses_core_schedule else "drive"


#: (module, function, span name, attribute taken from the call).
TARGETS = (
    ("spingraph.grape", "optimize", "grape.optimize", _optimize_attr),
    ("spingraph.grape", "scan_duration", "grape.scan_duration", None),
    ("spingraph.chain", "assemble_system", "chain.assemble_system", None),
    ("spingraph.chain", "build_control_hz", "chain.build_control_hz", None),
    ("spingraph.operators", "two_site_operator", "operators.two_site_operator", None),
    ("spingraph.operators", "embed_local_operator", "operators.embed_local_operator", None),
    ("spingraph.operators", "evolve_unitary", "operators.evolve_unitary", None),
    ("numpy.linalg", "eigh", "linalg.eigh", _eigh_attr),
    ("spingraph.dynamics", "evolve_master", "dynamics.evolve_master", None),
    ("spingraph.dynamics", "ensemble_average", "dynamics.ensemble_average", None),
    ("spingraph.dynamics", "closed_system_trace", "dynamics.closed_system_trace", None),
    ("spingraph.dynamics", "sample_geometry_noise", "dynamics.sample_geometry_noise", None),
    ("spingraph.dynamics", "sample_field_noise", "dynamics.sample_field_noise", None),
    ("spingraph.protocol", "run_stage", "protocol.run_stage", _stage_attr),
    ("spingraph.protocol", "run_full_protocol", "protocol.run_full_protocol", None),
)

class Tracer:
    """In-memory spans: [name, start, end, parent index, attribute]."""

    #: Root span around each job; its self time is the CLI's own work.
    JOB_SPAN = "cli.job"

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._clock = perf_counter

    def _open(self, name: str) -> list:
        span = [name, self._clock(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, fn, name: str, attr):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if attr is not None:
                record[4] = attr(args, kwargs, result)
            return result

        return wrapper

    def install(self, clock=perf_counter) -> None:
        """Wrap every target and rebind each spingraph name bound to it.
        Spans are timed with ``clock``."""
        self._clock = clock
        for module_name, attr_name, span_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr_name)
            wrapper = self._wrap(original, span_name, attr)
            for mod_name, module in list(sys.modules.items()):
                if module is None:
                    continue
                if mod_name != module_name and mod_name.split(".")[0] != "spingraph":
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


def write(spans: list[list], path) -> None:
    """One JSON object per span, times relative to the first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, attr in spans:
            fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                 "parent": parent, "attr": attr}) + "\n")


def _layer_totals(spans: list[list]) -> dict[str, dict]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, _, attr) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": []})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child[i]
        if attr is not None:
            entry["attrs"].append(attr)
    return totals


#: per-layer metric name -> unit
LAYER_UNITS = {
    "grape.optimize.calls": "count",
    "grape.optimize.self_s": "s",
    "grape.optimize.iterations": "count",
    "grape.optimize.converged_frac": "ratio",
    "grape.scan_duration.busy_s": "s",
    "chain.assemble_system.calls": "count",
    "chain.assemble_system.busy_s": "s",
    "chain.assemble_system.self_s": "s",
    "chain.build_control_hz.busy_s": "s",
    "operators.two_site_operator.calls": "count",
    "operators.two_site_operator.busy_s": "s",
    "operators.embed_local_operator.calls": "count",
    "operators.embed_local_operator.busy_s": "s",
    "operators.evolve_unitary.calls": "count",
    "operators.evolve_unitary.busy_s": "s",
    "operators.evolve_unitary.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.busy_s": "s",
    "linalg.eigh.max_dim": "dim",
    "dynamics.evolve_master.calls": "count",
    "dynamics.evolve_master.busy_s": "s",
    "dynamics.evolve_master.self_s": "s",
    "dynamics.ensemble_average.calls": "count",
    "dynamics.ensemble_average.busy_s": "s",
    "dynamics.ensemble_average.self_s": "s",
    "dynamics.closed_system_trace.calls": "count",
    "dynamics.closed_system_trace.busy_s": "s",
    "dynamics.closed_system_trace.self_s": "s",
    "dynamics.sample_geometry_noise.calls": "count",
    "dynamics.sample_field_noise.calls": "count",
    "protocol.run_stage.calls": "count",
    "protocol.run_stage.self_s": "s",
    "protocol.run_stage.core.busy_s": "s",
    "protocol.run_stage.drive.busy_s": "s",
    "protocol.run_full_protocol.busy_s": "s",
    "cli.job.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list], output_bytes: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer values of one traced pass, except ``trace.overhead_s``.
    Times are multiplied by ``scale``, the pass's calibration factor."""
    totals = _layer_totals(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": []}
    stages = [(end - start, kind) for name, start, end, _, kind in spans
              if name == "protocol.run_stage"]
    for kind in ("core", "drive"):
        totals[f"protocol.run_stage.{kind}"] = {
            "busy_s": sum(d for d, k in stages if k == kind)
        }
    results = totals.get("grape.optimize", empty)["attrs"]
    derived = {
        "grape.optimize.iterations": sum(it for it, _ in results),
        "grape.optimize.converged_frac": (
            sum(1 for _, ok in results if ok) / len(results) if results else 0.0
        ),
        "linalg.eigh.max_dim": max(totals.get("linalg.eigh", empty)["attrs"], default=0),
        "cli.output_bytes": output_bytes,
    }
    out: dict[str, float] = {}
    for name in LAYER_UNITS:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead_s":
            layer, _, field = name.rpartition(".")
            value = totals.get(layer, empty)[field]
            out[name] = value * scale if LAYER_UNITS[name] == "s" else value
    return out


def combine(per_pass: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Counts from the first traced pass (they repeat exactly for one job
    list); times as the median over traced passes."""
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif unit == "s":
            out[name] = statistics.median(p[name] for p in per_pass)
        else:
            out[name] = per_pass[0][name]
    return out
