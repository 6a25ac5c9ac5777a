"""Self-tests of the benchmark (a few minutes; the N=4 protocol run alone
takes about 20 s):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

workloads = run._import_program()
import calibration  # noqa: E402
import spans  # noqa: E402

SELFTEST = run.WORK / "selftest"


def _bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("pass0_outputs_sha256"))
    return json.loads(lines[-1]), digest


def _pass(jobs, name: str, tracer=None) -> run.Pass:
    directory = SELFTEST / name
    shutil.rmtree(directory, ignore_errors=True)
    return run._run_pass(workloads, workloads.numbered(jobs), directory, tracer)


def test_benchmark_json_lists_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_job_list(workload):
    assert workloads.job_list(workload, 5, 1) == workloads.job_list(workload, 5, 1)
    assert workloads.job_list(workload, 5) != workloads.job_list(workload, 6)
    assert workloads.job_list(workload, 5, 0) != workloads.job_list(workload, 5, 1)


def test_sampler_clock_leaves_out_the_calibration_rounds():
    with calibration.Sampler() as sampler:
        wall0 = perf_counter()
        clock0 = sampler.clock()
        while perf_counter() - wall0 < 0.5:
            pass
        clock1 = sampler.clock()
        wall1 = perf_counter()
    inside = sampler.rounds[1:-1]  # the first and last run at entry and exit
    assert len(inside) >= 3
    left_out = (wall1 - wall0) - (clock1 - clock0)
    assert left_out == pytest.approx(sum(inside), rel=0.05, abs=0.003)


@pytest.mark.parametrize("workload", ["control", "error_budget"])
def test_reruns_and_traced_runs_give_identical_outputs(workload):
    first, digest_a = _bench(workload, 3, 0)
    second, digest_b = _bench(workload, 3, 0)
    traced, digest_c = _bench(workload, 3, 1)
    assert first["correct"] and second["correct"] and first["failed"] == 0
    assert digest_a == digest_b == digest_c
    # a traced pass fails any job whose outputs differ from the untraced pass's
    assert traced["correct"] and traced["failed"] == 0
    self_s = {k: m["value"] for k, m in traced["metrics"].items() if k.endswith(".self_s")}
    dominant = {"control": "grape.optimize.self_s",
                "error_budget": "dynamics.evolve_master.self_s"}[workload]
    assert max(self_s, key=self_s.get) == dominant


def test_wrong_reference_is_counted_as_failed():
    refs = workloads.load_inputs()
    name = workloads.protocol_schedules()[0]
    p = _pass([workloads.master_job("rydberg_n3.json"), workloads.protocol_cli_job(name)],
              "references")
    assert not any(run._check([p], refs))
    wrong = copy.deepcopy(refs)
    wrong["master"]["rydberg_n3.json"] += 2e-6
    wrong["protocol"][name][-1] += 1e-8
    results = run._check([p], wrong)
    assert all(results)
    assert sum(1 for failures in results if failures) / len(results) > 0


def _descendants(all_spans, root_name: str, name: str) -> list[int]:
    """For each span called root_name, how many spans called name it encloses."""
    counts = {i: 0 for i, s in enumerate(all_spans) if s[0] == root_name}
    for s in all_spans:
        if s[0] != name:
            continue
        parent = s[3]
        while parent >= 0 and parent not in counts:
            parent = all_spans[parent][3]
        if parent >= 0:
            counts[parent] += 1
    return list(counts.values())


def test_exact_counts():
    name = workloads.protocol_schedules()[0]
    jobs = [workloads.protocol_cli_job(name), workloads.protocol_cli_job(name),
            workloads.protocol_api_job(), workloads.job_list("control", 1)[-2]]
    assert jobs[-1].kind == "scan-t"
    tracer = spans.Tracer()
    p = _pass(jobs, "counts", tracer)
    assert p.errors == [None] * 4
    assert _descendants(tracer.spans, "protocol.run_full_protocol", "linalg.eigh") == [90] * 3
    assert _descendants(tracer.spans, "grape.scan_duration", "grape.optimize") == [71]
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["linalg.eigh.max_dim"] == 5**4
    # eigh is a leaf, so its busy time is its self time
    assert metrics["linalg.eigh.busy_s"] > max(
        v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["protocol.run_full_protocol.busy_s"] > 0
