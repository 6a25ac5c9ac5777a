"""Seeded job lists for the benchmark workloads, and the job runner.

A job is one user command: a ``spingraph`` CLI invocation run in-process,
or, where the CLI cannot reach (the protocol command pins three atoms), a
call into the public API that writes the same kind of outputs. Jobs write
into the current directory, which the caller points at a fresh pass
directory, so every output path inside a record is relative and a rerun
reproduces the files byte for byte.

Workloads (the seed and the pass index pick the inputs; the program only
sees the generated arguments):

control
    128 ``optimize`` jobs: for each mode, N in 3..6 and four durations
    spanning table T x [0.95, 1.05], one gaussian guess and three random
    guesses with seeded seeds, in seeded order; then one ``scan-t``
    (rydberg, N=3, 71 points) and one ``table 1``. GRAPE ascent
    dominates. Repeated (mode, N) pairs at varying T give a cross-duration
    model cache something to reuse.
error_budget
    ``master`` at N=3, 4 (two schedules) and 5, and ``noise`` ensembles
    (50 samples) at N=3..6, two (four at N=5) under position and as many
    under field noise with seeded base seeds, all on checked-in schedules
    so that no GRAPE work is timed. The RK4 master equation dominates the
    wall time; kron assembly dominates the ensemble jobs, which are the
    median job.
protocol
    8 staged-protocol runs through the CLI on checked-in N=3 schedules
    picked by the seed, plus one N=4 run through
    ``protocol.run_full_protocol``. Dense ``eigh`` on 5-level operators
    dominates; this is the only workload with 5-level operators.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spingraph import cli, config, grape, protocol

INPUTS = Path(__file__).resolve().parent / "inputs"
SCHEDULES = INPUTS / "schedules"

WORKLOADS = ("control", "error_budget", "protocol")

#: Table durations (ideal: J*T, rydberg: us) the jobs jitter around.
TABLE_T = {
    "ideal": {3: 2.3, 4: 2.808, 5: 3.386, 6: 3.952},
    "rydberg": {3: 0.141, 4: 0.172, 5: 0.203, 6: 0.233},
}

#: Durations per (mode, N, guess) combination, as factors on the table T:
#: the midpoints of four equal strata of [0.95, 1.05]. They are fixed rather
#: than drawn, because the ascent's iteration count jumps with T on the N=4
#: cases and drawn durations made the p90 latency depend on the seed.
T_FACTORS = (0.9625, 0.9875, 1.0125, 1.0375)
#: Random guesses per gaussian guess at each (mode, N, duration). The
#: gaussian-guess ascent stalls for hundreds of iterations on every ideal
#: N=4 case and on the longest rydberg N=4 one; with one random guess per
#: gaussian guess those jobs, scan-t and table 1 made up 10.6% of the list,
#: so the p90 job was always one of them and read as noisily as a single
#: job. Three random guesses per gaussian guess put the p90 among the many
#: random-guess N=4 and gaussian N=5/6 jobs of similar length.
RANDOM_GUESSES = 3
PROTOCOL_CLI_RUNS = 8
NOISE_CONFIGS = {"position": "position_noise.yaml", "field": "field_noise.yaml"}
#: Ensembles per noise kind at each N, each with its own base seed. Job
#: times group by N, and the N=3 and N=4 groups with the N=3 master fill
#: just under half the list. Twice as many N=5 ensembles put the median
#: job inside the N=5 group rather than on the boundary between groups.
NOISE_SEEDS = {3: 2, 4: 2, 5: 4, 6: 2}
#: Schedules of the master-equation jobs. The two N=4 schedules (100 and
#: 10 slices) put one more job between the p50 and p90 ranks, so that both
#: percentiles fall inside a group of similar jobs rather than on the
#: slowest member of one.
MASTER_SCHEDULES = ("rydberg_n3.json", "rydberg_n4.json", "protocol_n4.json",
                    "rydberg_n5.json")


@dataclass
class Job:
    """One user command. ``args`` is the CLI argument list (empty for the
    API protocol job); ``meta`` carries what the output checks need."""

    kind: str
    prefix: str
    args: list[str]
    meta: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.prefix} {self.kind} {self.meta}"


def load_inputs() -> dict:
    """Checked-in references; schedules are read by path when jobs run."""
    with open(INPUTS / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def _number(x: float) -> str:
    return repr(float(x))


def _control_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for mode in ("ideal", "rydberg"):
        for n in (3, 4, 5, 6):
            for factor in T_FACTORS:
                t = TABLE_T[mode][n] * factor
                for guess in ("gaussian",) + ("random",) * RANDOM_GUESSES:
                    args = ["optimize", "--mode", mode, "--n", str(n),
                            "--t", _number(t), "--guess", guess]
                    if guess == "random":
                        args += ["--seed", str(int(rng.integers(1, 2**31)))]
                    jobs.append(Job("optimize", "", args,
                                    {"mode": mode, "n": n, "t": float(t)}))
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]
    jobs.append(Job("scan-t", "", ["scan-t", "--mode", "rydberg", "--n", "3",
                                   "--steps", "71"], {"steps": 71}))
    jobs.append(Job("table", "", ["table", "1"], {"which": "1"}))
    return jobs


def master_job(name: str) -> Job:
    record = grape.load_result(SCHEDULES / name)
    return Job("master", "", [
        "master", "--n", str(record["N"]), "--t", _number(record["T"]),
        "--schedule", str(SCHEDULES / name),
    ], {"n": record["N"], "schedule": name})


def _error_budget_jobs(rng: np.random.Generator) -> list[Job]:
    jobs = [master_job(name) for name in MASTER_SCHEDULES]
    for n in (3, 4, 5, 6):
        name = f"rydberg_n{n}.json"
        for noise, config_name in [*NOISE_CONFIGS.items()] * NOISE_SEEDS[n]:
            base_seed = int(rng.integers(0, 2**30))
            jobs.append(Job("noise", "", [
                "noise", "--config", str(INPUTS / config_name), "--n", str(n),
                "--t", _number(TABLE_T["rydberg"][n]),
                "--schedule", str(SCHEDULES / name), "--base-seed", str(base_seed),
            ], {"n": n, "schedule": name, "noise": noise, "base_seed": base_seed}))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def protocol_schedules() -> list[str]:
    """Checked-in N=3 schedules the protocol CLI jobs draw from."""
    return sorted(p.name for p in SCHEDULES.glob("protocol_n3_*.json"))


def protocol_cli_job(name: str) -> Job:
    t = grape.load_result(SCHEDULES / name)["T"]
    return Job("protocol", "", [
        "protocol", "--t", _number(t), "--schedule", str(SCHEDULES / name),
    ], {"n": 3, "schedule": name})


def protocol_api_job() -> Job:
    return Job("protocol-api", "", [], {"n": 4, "schedule": "protocol_n4.json"})


def _protocol_jobs(rng: np.random.Generator) -> list[Job]:
    names = protocol_schedules()
    jobs = [protocol_cli_job(names[int(i)])
            for i in rng.integers(0, len(names), size=PROTOCOL_CLI_RUNS)]
    jobs.append(protocol_api_job())
    return [jobs[i] for i in rng.permutation(len(jobs))]


_GENERATORS = {
    "control": _control_jobs,
    "error_budget": _error_budget_jobs,
    "protocol": _protocol_jobs,
}

#: Output option per command; every job writes only files named prefix*.
_OUTPUT_OPTION = {
    "optimize": ("--out", ".json"),
    "table": ("--out", ".csv"),
    "scan-t": ("--out-prefix", ""),
    "master": ("--out-prefix", ""),
    "noise": ("--out-prefix", ""),
    "protocol": ("--out-prefix", ""),
}


def job_list(workload: str, seed: int, index: int = 0) -> list[Job]:
    """The workload's job list for a seed and pass index; the same seed and
    index give the same list."""
    return numbered(_GENERATORS[workload](_rng(workload, seed, index)))


def numbered(jobs: list[Job]) -> list[Job]:
    """Give each job the prefix its output files are named by."""
    for i, job in enumerate(jobs):
        job.prefix = f"j{i:03d}"
    return jobs


def _run_protocol_api(job: Job) -> None:
    record = grape.load_result(SCHEDULES / job.meta["schedule"])
    cfg = config.ExperimentConfig(mode="rydberg", n_sites=record["N"], t_total=record["T"])
    plan = protocol.standard_plan(
        config.build_model(cfg).geometry, grape.schedule_from_record(record)
    )
    result = protocol.run_full_protocol(plan)
    protocol.write_timeline_csv(f"{job.prefix}_timeline.csv", result.timeline)
    summary = {
        "total_duration": result.total_duration,
        "stages": [
            {"label": r.label, "end_time": r.end_time,
             "reference_population": r.reference_population}
            for r in result.stage_reports
        ],
        "config_hash": config.config_hash(cfg),
        "constants_version": config.constants_version(cfg),
    }
    with open(f"{job.prefix}_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def run_job(job: Job) -> None:
    """Run one job in the current directory; raises if the job fails or
    the CLI refuses it."""
    if job.kind == "protocol-api":
        _run_protocol_api(job)
        return
    option, suffix = _OUTPUT_OPTION[job.kind]
    args = [*job.args, option, job.prefix + suffix]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=args, prog_name="spingraph", standalone_mode=False)
