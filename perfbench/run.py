"""spingraph benchmark: seeded job streams in a closed loop, one client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload control --seed 1 --seconds 30 --trace 0

The run works in passes. Each pass draws its own job list from the seed
and the pass index, and another pass starts only if it would end within
``--seconds``. After the timed section the run checks every output. It
prints one JSON object as the last line of standard output. With
``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs each job list twice, untraced and then traced, requires the two to
write the same bytes, and reports the per-layer metrics.

Times are calibrated: each pass times a fixed calibration round ten
times a second, and each job's time is scaled to the reference speed of
the rounds around it (see ``calibration.py``).

BLAS threads are pinned to 1 and SPINGRAPH_WORKERS is unset: the script
re-executes itself with that environment before importing numpy. Outputs
go to ``.perfbench_work/`` and result files to ``.perfbench_out/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNSET_ENV = ("SPINGRAPH_WORKERS",)

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 9
#: Calibration rounds timed before and after each set-up probe.
SETUP_CALIBRATION_ROUNDS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _pin_environment(script: str = __file__) -> None:
    """Re-execute ``script`` with BLAS threads pinned unless already pinned."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and not any(
        k in os.environ for k in UNSET_ENV
    ):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(script).resolve()), *sys.argv[1:]], env)


def _import_program():
    """Import spingraph from this checkout's sources, or exit non-zero."""
    if not (SRC / "spingraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spingraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spingraph

    if not Path(spingraph.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: spingraph imported from {spingraph.__file__}, not {SRC}")
    import workloads

    return workloads


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("control", "error_budget", "protocol"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time-to-ready probe for setup_s; internal")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _setup_probe(args) -> None:
    """Import the program, load inputs, build the job list, report the time."""
    workloads = _import_program()
    workloads.load_inputs()
    workloads.job_list(args.workload, args.seed)
    print(repr(perf_counter()))


def _setup_seconds(args) -> float:
    """Median calibrated time from spawn to ready over fresh processes."""
    import calibration

    times = []
    for _ in range(SETUP_PROBES):
        rounds = [calibration.sample() for _ in range(SETUP_CALIBRATION_ROUNDS)]
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        # perf_counter is the system-wide monotonic clock on Linux, so the
        # probe's ready time and this spawn time share an origin
        ready = float(proc.stdout.strip().splitlines()[-1]) - start
        rounds += [calibration.sample() for _ in range(SETUP_CALIBRATION_ROUNDS)]
        times.append(ready * calibration.factor(rounds))
    return statistics.median(times)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    """One run of a job list: per-job errors and times, the calibration
    sampler of the pass, and the tracer that recorded a traced pass."""

    jobs: list
    dir: Path
    tracer: object = None
    #: the untraced pass over the same job list, for a traced pass
    untraced: "Pass | None" = None
    errors: list = field(default_factory=list)
    #: per job: start on the sampler's clock, measured and calibrated seconds
    starts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    job_seconds: list = field(default_factory=list)
    sampler: object = None
    wall: float = 0.0

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def scale(self) -> float:
        """Factor from this pass's measured seconds to calibrated seconds,
        over the whole pass."""
        import calibration

        return calibration.factor(self.sampler.rounds)


def _run_pass(workloads, jobs, directory: Path, tracer=None) -> Pass:
    import calibration

    result = Pass(jobs, directory, tracer)
    directory.mkdir(parents=True)
    os.chdir(directory)
    sampler = result.sampler = calibration.Sampler()
    clock = sampler.clock
    if tracer is not None:
        tracer.install(clock)
    try:
        with sampler:
            start = clock()
            for job in jobs:
                t0 = clock()
                result.starts.append(t0)
                try:
                    if tracer is None:
                        workloads.run_job(job)
                    else:
                        with tracer.span(tracer.JOB_SPAN):
                            workloads.run_job(job)
                    result.errors.append(None)
                except Exception as exc:  # a failed or refused job is counted, not fatal
                    result.errors.append(f"{type(exc).__name__}: {exc}")
                result.latencies.append(clock() - t0)
            result.wall = clock() - start
        result.job_seconds = [t * sampler.factor_between(t0, t0 + t)
                              for t0, t in zip(result.starts, result.latencies)]
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(ROOT)
    return result


def _measure(workloads, args, work: Path) -> list[Pass]:
    """Passes over the job lists of pass index 0, 1, ... (an untraced and a
    traced pass per list with --trace 1). The first list always runs; each
    further one starts only if a round as long as the longest so far still
    ends within ``--seconds``."""
    import spans

    passes: list[Pass] = []
    longest = 0.0
    index = 0
    start = perf_counter()
    while index == 0 or perf_counter() - start + longest <= args.seconds:
        round_start = perf_counter()
        jobs = workloads.job_list(args.workload, args.seed, index)
        untraced = _run_pass(workloads, jobs, work / f"p{index}")
        passes.append(untraced)
        if args.trace:
            traced = _run_pass(workloads, jobs, work / f"t{index}", spans.Tracer())
            traced.untraced = untraced
            passes.append(traced)
        longest = max(longest, perf_counter() - round_start)
        index += 1
    return passes


def _check(passes: list[Pass], refs: dict) -> list[list[str]]:
    """Failure messages per attempted job, empty when the job passed. A job
    fails if it raised or was refused, if its outputs fail a check, or, in
    a traced pass, if they differ from the untraced pass's outputs."""
    import checks

    results = []
    for p in passes:
        for job, error in zip(p.jobs, p.errors):
            if error is not None:
                failures = [error]
            else:
                failures = checks.check_job(job, p.dir, refs)
                pattern = f"{job.prefix}[._]*"
                if p.untraced is not None and checks.output_digest(p.dir, pattern) \
                        != checks.output_digest(p.untraced.dir, pattern):
                    failures.append(f"outputs differ from those of {p.untraced.dir.name}")
            results.append([f"{p.dir.name} {job.describe()}: {f}" for f in failures])
    return results


def _bytes_written(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **{k: os.environ.get(k) for k in PINNED_ENV},
        **{k: os.environ.get(k, "unset") for k in UNSET_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_environment()
    if args.setup_probe:
        _setup_probe(args)
        return 0
    workloads = _import_program()
    setup_s = None if args.trace else _setup_seconds(args)
    refs = workloads.load_inputs()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)

    passes = _measure(workloads, args, work)

    results = _check(passes, refs)
    failed = sum(1 for failures in results if failures)
    attempted = len(results)
    if args.trace:
        import spans

        traced = [p for p in passes if p.traced]
        overhead = statistics.median(
            sum(p.job_seconds) - sum(p.untraced.job_seconds) for p in traced
        )
        per_pass = [spans.layer_metrics(p.tracer.spans, _bytes_written(p.dir), p.scale)
                    for p in traced]
        values = spans.combine(per_pass, overhead)
        units = spans.LAYER_UNITS
    else:
        latencies = [t for p in passes for t in p.job_seconds]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(p.job_seconds) for p in passes),
            "job_p50_s": _percentile(latencies, 0.5),
            "job_p90_s": _percentile(latencies, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    import checks

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans.write(traced[0].tracer.spans, OUT / f"spans-{stem}.jsonl")
    digest = checks.output_digest(passes[0].dir)
    failures = [f for job_failures in results for f in job_failures]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": _fingerprint(),
        "passes": [
            {"dir": p.dir.name, "measured_wall_s": p.wall, "scale": p.scale,
             "calibration": list(zip(p.sampler.at, p.sampler.rounds)),
             "jobs": list(zip([j.prefix for j in p.jobs], [j.kind for j in p.jobs],
                              p.starts, p.latencies, p.job_seconds))}
            for p in passes
        ],
        "pass0_outputs_sha256": digest,
        "failures": failures[:50],
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed (failed_frac {failed / attempted:.6g})")
    for line in failures[:10]:
        print(f"  FAIL {line}")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    print(f"pass0_outputs_sha256 {digest}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
