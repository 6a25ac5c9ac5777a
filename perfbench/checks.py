"""Output checks, run after the timed section.

``check_job`` returns the list of failures for one job's outputs (empty
when they pass). The replays use the public API with the package's own
conventions, independently of the CLI code that wrote the files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import yaml

from spingraph import chain, dynamics, grape, targets
from spingraph.config import ExperimentConfig, build_model

from workloads import INPUTS, SCHEDULES, Job

REPLAY_TOL = 1e-9
TABLE_TOL = 1e-6
MASTER_TOL = 1e-6
SAMPLE_TOL = 1e-10
PROTOCOL_TOL = 1e-9


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _final_population(model, schedule, n: int) -> float:
    return float(dynamics.closed_system_trace(
        model, schedule, targets.plus_product_state(n), targets.complete_graph_state(n)
    )[-1])


def _check_optimize(job: Job, outdir: Path, refs: dict) -> list[str]:
    record = _json(outdir / f"{job.prefix}.json")
    failures = []
    if record["N"] != job.meta["n"] or record["T"] != job.meta["t"]:
        failures.append("record does not match the requested N and T")
    model = build_model(ExperimentConfig(mode=job.meta["mode"], n_sites=job.meta["n"]))
    replay = _final_population(model, grape.schedule_from_record(record), job.meta["n"])
    if not abs(replay - record["final_population"]) <= REPLAY_TOL:
        failures.append(
            f"replayed population {replay!r} != reported {record['final_population']!r}"
        )
    history = record["phi_history"]
    if not history or any(b < a for a, b in zip(history, history[1:])):
        failures.append("phi_history is empty or decreases")
    return failures


def _check_scan(job: Job, outdir: Path, refs: dict) -> list[str]:
    pops = [float(r["population"]) for r in _csv_rows(outdir / f"{job.prefix}_curve.csv")]
    peaks = _json(outdir / f"{job.prefix}_peaks.json")["peaks"]
    failures = []
    if len(pops) != job.meta["steps"]:
        failures.append(f"scan has {len(pops)} points, expected {job.meta['steps']}")
    if not all(0.0 <= p <= 1.0 + REPLAY_TOL for p in pops):
        failures.append("scan population outside [0, 1]")
    if not peaks:
        failures.append("scan reports no peak")
    return failures


def _check_table(job: Job, outdir: Path, refs: dict) -> list[str]:
    rows = _csv_rows(outdir / f"{job.prefix}.csv")
    reference = refs["table1"]
    got = {row["n"]: float(row["population"]) for row in rows}
    if sorted(got) != sorted(reference):
        return [f"table rows {sorted(got)} != {sorted(reference)}"]
    # one-sided: a better optimum than the documented table is not a failure
    return [
        f"table 1 N={n}: {got[n]!r} below reference {ref!r}"
        for n, ref in reference.items()
        if not got[n] >= ref - TABLE_TOL
    ]


def _check_master(job: Job, outdir: Path, refs: dict) -> list[str]:
    summary = _json(outdir / f"{job.prefix}_summary.json")
    ref = refs["master"][job.meta["schedule"]]
    opened, closed = summary["open_population"], summary["closed_population"]
    failures = []
    if not abs(opened - ref) <= MASTER_TOL:
        failures.append(f"open population {opened!r} != reference {ref!r}")
    if not opened <= closed + MASTER_TOL:
        failures.append(f"open population {opened!r} above closed {closed!r}")
    return failures


def _check_noise(job: Job, outdir: Path, refs: dict) -> list[str]:
    summary = _json(outdir / f"{job.prefix}_summary.json")
    with open(INPUTS / f"{job.meta['noise']}_noise.yaml", encoding="utf-8") as fh:
        noise = yaml.safe_load(fh)["noise"]
    spec = dynamics.NoiseSpec(
        position_sigma=tuple(noise.get("position_sigma", (0.0, 0.0, 0.0))),
        field_sigma=float(noise.get("field_sigma", 0.0)),
        samples=int(noise["samples"]),
        base_seed=job.meta["base_seed"],
    )
    n = job.meta["n"]
    model = chain.RydbergModel(chain.ChainGeometry.regular(n))
    schedule = grape.schedule_from_record(grape.load_result(SCHEDULES / job.meta["schedule"]))
    if job.meta["noise"] == "position":
        model = chain.RydbergModel(dynamics.sample_geometry_noise(model.geometry, spec, 0))
    else:
        schedule = dynamics.sample_field_noise(
            schedule, spec.field_sigma, spec.base_seed + spec.samples
        )
    sample0 = _final_population(model, schedule, n)
    finals = summary["sample_finals"]
    failures = []
    if len(finals) != spec.samples:
        failures.append(f"{len(finals)} samples, expected {spec.samples}")
    if not abs(sample0 - finals[0]) <= SAMPLE_TOL:
        failures.append(f"rebuilt sample 0 {sample0!r} != reported {finals[0]!r}")
    return failures


def _check_protocol(job: Job, outdir: Path, refs: dict) -> list[str]:
    stages = _json(outdir / f"{job.prefix}_summary.json")["stages"]
    ref = refs["protocol"][job.meta["schedule"]]
    got = [s["reference_population"] for s in stages]
    if len(got) != len(ref):
        return [f"{len(got)} stages, expected {len(ref)}"]
    return [
        f"stage {s['label']}: {g!r} != reference {r!r}"
        for s, g, r in zip(stages, got, ref)
        if (g is None) != (r is None) or (r is not None and not abs(g - r) <= PROTOCOL_TOL)
    ]


_CHECKS = {
    "optimize": _check_optimize,
    "scan-t": _check_scan,
    "table": _check_table,
    "master": _check_master,
    "noise": _check_noise,
    "protocol": _check_protocol,
    "protocol-api": _check_protocol,
}


def check_job(job: Job, outdir: Path, refs: dict) -> list[str]:
    """Failures of one job's outputs against the replays and references."""
    try:
        return _CHECKS[job.kind](job, outdir, refs)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_digest(outdir: Path, pattern: str = "*") -> str:
    """sha256 over the names and bytes of the files matching ``pattern``."""
    h = hashlib.sha256()
    for path in sorted(outdir.glob(pattern)):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
