"""Write the benchmark's checked-in inputs under perfbench/inputs/.

    python3 perfbench/make_inputs.py

Schedules come from the public ``grape.optimize``, stamped with their
config hash and constants version like the CLI's records. References are
the outputs of the benchmark's own jobs on those schedules, plus the
documented Table 1 populations. The files were generated once, when the
benchmark was defined; regenerating them resets what the output checks
compare against, so a later change must not regenerate them to make a
check pass.
"""

from __future__ import annotations

import json
import os
import shutil

from run import WORK, _import_program, _pin_environment

# the same BLAS threading as the benchmark's runs, so the references are
# the bytes a run computes
_pin_environment(__file__)
workloads = _import_program()

from spingraph import config, grape  # noqa: E402  (needs the path set above)

#: Table 1 (ideal chain) populations; the table check is one-sided.
TABLE1 = {"3": 0.996920, "4": 0.993138, "5": 0.970973, "6": 0.934599}

#: N=3 protocol schedules: (duration factor on table T, random-guess seed).
PROTOCOL_N3 = ((0.98, 1), (0.99, 2), (1.0, 3), (1.01, 4), (1.02, 5), (1.03, 6))


def _schedule(name: str, n: int, t: float, seed: int, slices: int | None) -> None:
    cfg = config.ExperimentConfig(
        mode="rydberg", n_sites=n, t_total=t, guess_kind="random", seed=seed,
        guess_slices=slices,
    )
    result = grape.optimize(grape.GrapeConfig(
        model=config.build_model(cfg), t_total=t,
        guess=config.build_guess_spec(cfg), target=config.build_target_spec(cfg),
    ))
    record = grape.schedule_to_record(
        result.schedule, mode="rydberg", n_sites=n, seed=seed,
        constants_version=config.constants_version(cfg),
        phi_history=result.phi_history, final_population=result.final_population,
    )
    record["config_hash"] = config.config_hash(cfg)
    record["converged"] = result.converged
    grape.save_result(workloads.SCHEDULES / name, record)
    print(f"{name}: population {result.final_population:.6f}")


def _summary(job) -> dict:
    workloads.run_job(job)
    with open(f"{job.prefix}_summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    workloads.SCHEDULES.mkdir(parents=True, exist_ok=True)
    t_table = workloads.TABLE_T["rydberg"]
    for n in (3, 4, 5, 6):
        _schedule(f"rydberg_n{n}.json", n, t_table[n], 1, 100)
    for factor, seed in PROTOCOL_N3:
        _schedule(f"protocol_n3_{seed}.json", 3, t_table[3] * factor, seed, None)
    _schedule("protocol_n4.json", 4, t_table[4], 1, None)

    scratch = WORK / "make_inputs"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.chdir(scratch)
    refs = {"table1": TABLE1, "master": {}, "protocol": {}}
    for job in workloads.numbered([workloads.master_job(n) for n in workloads.MASTER_SCHEDULES]):
        refs["master"][job.meta["schedule"]] = _summary(job)["open_population"]
    protocol_jobs = [workloads.protocol_cli_job(name) for name in workloads.protocol_schedules()]
    for job in workloads.numbered(protocol_jobs + [workloads.protocol_api_job()]):
        refs["protocol"][job.meta["schedule"]] = [
            s["reference_population"] for s in _summary(job)["stages"]
        ]
    with open(workloads.INPUTS / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(refs, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
