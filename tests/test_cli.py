"""Command-line interface: outputs, determinism, and error handling."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import time
import warnings
import weakref
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import spingraph.cli as cli
import spingraph.dynamics as dynamics
import spingraph.operators as operators
from spingraph import __version__
from spingraph.analytic import scan_constant_field
from spingraph.chain import ChainGeometry, RydbergModel
from spingraph.cli import main
from spingraph.config import ExperimentConfig, config_hash
from spingraph.grape import load_result, schedule_from_record
from spingraph.targets import complete_graph_state, plus_product_state

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def core_schedule_path(tmp_path_factory, runner):
    """Optimized 3-atom chain schedule reused by the consumer commands."""
    out = tmp_path_factory.mktemp("sched") / "core.json"
    result = runner.invoke(
        main,
        ["optimize", "--mode", "rydberg", "--n", "3", "--t", "0.141", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "spingraph" in result.output
    assert __version__ in result.output


def test_commands_release_the_stdout_they_wrote_to():
    # in-process callers swap sys.stdout per command; each swapped-in stream
    # must be freed afterwards, not kept alive by the echo path
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        main.main(args=["analytic"], standalone_mode=False)
    assert "C1=0 C2=0" in stream.getvalue()
    released = weakref.ref(stream)
    del stream
    gc.collect()
    assert released() is None


def test_optimize_outputs_and_determinism(runner, tmp_path):
    args = ["optimize", "--mode", "ideal", "--n", "3", "--t", "2.3"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    res_a = runner.invoke(main, args + ["--out", str(first)])
    res_b = runner.invoke(main, args + ["--out", str(second)])
    assert res_a.exit_code == 0, res_a.output
    assert res_b.exit_code == 0, res_b.output
    assert first.read_bytes() == second.read_bytes()

    record = json.loads(first.read_text())
    assert record["mode"] == "ideal"
    assert record["N"] == 3
    assert record["T"] == pytest.approx(2.3)
    assert record["n"] == len(record["amplitudes"]) == 100
    assert record["seed"] is None  # gaussian guess carries no seed
    assert record["final_population"] > 0.995
    assert record["converged"] is True
    assert "gradient_method" not in record
    assert len(record["config_hash"]) == 64
    assert "final population" in res_a.output

    conv = first.with_suffix(".convergence.csv")
    assert conv.exists()
    with open(conv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "phi"]
    assert len(rows) == 1 + len(record["phi_history"])
    assert float(rows[-1][1]) == pytest.approx(record["final_population"])


def test_optimize_requires_duration(runner):
    result = runner.invoke(main, ["optimize", "--mode", "ideal", "--n", "3"])
    assert result.exit_code != 0
    assert "no evolution time" in result.output


def test_config_file_and_flag_precedence(runner, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(
        "run:\n  mode: ideal\n  n_sites: 3\n  t_total: 2.3\n"
        f"output:\n  output_dir: {tmp_path}\n",
        encoding="utf-8",
    )
    out = tmp_path / "override.json"
    result = runner.invoke(
        main,
        ["optimize", "--config", str(config), "--t", "2.2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    record = json.loads(out.read_text())
    assert record["T"] == pytest.approx(2.2)  # flag wins over the file
    assert record["mode"] == "ideal"


def test_malformed_config_fails_cleanly(runner, tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("simulation:\n  mode: ideal\n", encoding="utf-8")
    out = tmp_path / "never.json"
    result = runner.invoke(
        main, ["optimize", "--config", str(config), "--t", "2.3", "--out", str(out)]
    )
    assert result.exit_code == 1
    assert result.output == "Error: optimize failed: unknown config section 'simulation'\n"
    assert not out.exists()


def test_config_keys_are_the_cli_flags(runner):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    destinations = {
        param.name
        for command in main.commands.values()
        for param in command.params
        if isinstance(param, click.Option)
    }
    assert destinations & fields == fields - {"output_dir"}
    result = runner.invoke(main, ["noise", "--delta-r", "100"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--delta-r" in result.output


@pytest.mark.parametrize(
    "case",
    [
        ("run.t_total", '"0.141"', ["optimize"], "float or null, not '0.141'"),
        ("noise.samples", '"5"', ["noise", "--t", "0.141"], "int, not '5'"),
        ("guess.seed", "1.5", ["optimize", "--t", "0.141", "--guess", "random"], "int, not 1.5"),
        ("scan.scan_steps", "3.0", ["scan-t"], "int, not 3.0"),
    ],
    ids=lambda case: case[0],
)
def test_config_value_of_the_wrong_type_ends_in_one_line(runner, tmp_path, case):
    key, value, args, wanted = case
    section, name = key.split(".")
    path = tmp_path / "cfg.yaml"
    path.write_text(f"{section}:\n  {name}: {value}\n", encoding="utf-8")
    result = runner.invoke(main, [*args, "--config", str(path)])
    assert result.exit_code == 1
    assert result.output == f"Error: {args[0]} failed: {key} must be {wanted}\n"


def test_analytic_family_point(runner):
    result = runner.invoke(main, ["analytic", "--c1", "0", "--c2", "0"])
    assert result.exit_code == 0, result.output
    assert "B=-2.828427" in result.output
    assert "t*=1.110721" in result.output
    assert "closed-form 1.000000000" in result.output
    assert "propagated 1.000000000" in result.output


def test_analytic_rejects_bad_family(runner):
    result = runner.invoke(main, ["analytic", "--c1", "2", "--c2", "0"])
    assert result.exit_code != 0
    assert "c2 >= c1" in result.output


def test_analytic_scan_refuses_the_amplitude_stack_before_any_output(runner, tmp_path, monkeypatch):
    """1000 x 1251 points pass the scan budget, but the closed form would
    hold 10 amplitudes per point (its stack's 8 and 2 temporaries),
    12510000 in all: refused before an output directory or any amplitude
    exists. 21 x 31 points still run."""
    monkeypatch.chdir(tmp_path)
    scans = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "scan_constant_field", lambda *a: scans.append(a))
        args = ["analytic", "--scan", "--b-points", "1000", "--t-points", "1251",
                "--out-prefix", "a/x"]
        result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output == (
        "Error: analytic failed: 1000 B points x 1251 t points x 10 stacked and temporary "
        "amplitudes per point exceed the closed-form budget of 10000000 amplitudes\n"
    )
    assert scans == [] and list(tmp_path.iterdir()) == []
    args = ["analytic", "--scan", "--b-points", "21", "--t-points", "31", "--out-prefix", "a/x"]
    assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
    assert (tmp_path / "a" / "x_grid.csv").exists()


def test_analytic_scan_outputs(runner, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = runner.invoke(
        main,
        [
            "analytic", "--config", str(config), "--scan",
            "--b-points", "21", "--t-points", "31",
        ],
    )
    assert result.exit_code == 0, result.output
    grid = tmp_path / "analytic_grid.csv"
    peaks = tmp_path / "analytic_maxima.json"
    assert grid.exists() and peaks.exists()
    with open(grid, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["b", "t", "population"]
    assert len(rows) == 1 + 21 * 31
    # b-major rows of repr cells, so every value reads back bit for bit
    b_grid, t_grid = np.linspace(-10.0, 10.0, 21), np.linspace(0.01, 3.5, 31)
    pops, _ = scan_constant_field(1.0, b_grid, t_grid)
    assert rows[1:] == [
        [repr(float(b)), repr(float(t)), repr(float(pops[i, k]))]
        for i, b in enumerate(b_grid)
        for k, t in enumerate(t_grid)
    ]
    data = json.loads(peaks.read_text())
    assert "maxima" in data and "config_hash" in data


def test_noise_with_saved_schedule(runner, core_schedule_path, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = runner.invoke(
        main,
        [
            "noise", "--config", str(config),
            "--schedule", str(core_schedule_path),
            "--position-sigma", "193.5,193.5,1242.9",
            "--samples", "3",
        ],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "noise_summary.json").read_text())
    assert summary["samples"] == 3
    assert len(summary["sample_finals"]) == 3
    assert 0.0 < summary["mean_final"] <= 1.0
    assert len(summary["config_hash"]) == 64
    with open(tmp_path / "noise_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "mean", "min", "max"]
    assert len(rows) == 1 + 101  # 100 slices plus both endpoints
    finals = rows[-1]
    assert float(finals[2]) <= float(finals[1]) <= float(finals[3])


def test_noise_refuses_a_sample_whose_field_area_overflows(runner, tmp_path):
    # one sample's running area overflows; its population would be NaN,
    # which the JSON summary cannot hold
    result = runner.invoke(main, [
        "noise", "--n", "3", "--t", "0.141", "--schedule", SCHEDULE_N3,
        "--field-sigma", "1e307", "--samples", "3", "--out-prefix", str(tmp_path / "x"),
    ])
    assert result.exit_code == 1
    assert result.output == (
        "Error: noise failed: slice amplitudes and their field areas must be finite\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_noise_rejects_geometry_noise_in_ideal_mode(runner):
    result = runner.invoke(
        main,
        ["noise", "--mode", "ideal", "--position-sigma", "10,10,10", "--t", "2.3"],
    )
    assert result.exit_code != 0
    assert "rydberg" in result.output


def test_noise_rejects_short_sigma_triple(runner):
    result = runner.invoke(main, ["noise", "--position-sigma", "1,2"])
    assert result.exit_code != 0
    assert "three comma-separated values" in result.output


def test_master_with_saved_schedule(runner, core_schedule_path, tmp_path, monkeypatch):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    schedule = schedule_from_record(load_result(core_schedule_path))
    closed = dynamics.closed_system_trace(
        RydbergModel(ChainGeometry.regular(3)), schedule,
        plus_product_state(3), complete_graph_state(3),
    )[-1]
    original = dynamics.SpinSectors
    built = []

    def counting(model, psi0):
        built.append(model)
        return original(model, psi0)

    monkeypatch.setattr(dynamics, "SpinSectors", counting)
    result = runner.invoke(
        main,
        ["master", "--config", str(config), "--schedule", str(core_schedule_path)],
    )
    assert result.exit_code == 0, result.output
    # closed and open traces share one set of sectors, and closed is unchanged by it
    assert len(built) == 1
    summary = json.loads((tmp_path / "master_summary.json").read_text())
    assert summary["closed_population"] == float(closed)
    assert summary["closed_population"] > 0.99
    assert summary["dissipation_delta"] == pytest.approx(
        summary["closed_population"] - summary["open_population"]
    )
    assert summary["dissipation_delta"] == pytest.approx(0.00056, abs=2e-4)
    with open(tmp_path / "master_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "population"]
    assert len(rows) == 1 + 101


def test_protocol_with_saved_schedule(runner, core_schedule_path, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["protocol", "--config", str(config), "--schedule", str(core_schedule_path)],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "protocol_summary.json").read_text())
    assert summary["total_duration"] == pytest.approx(0.3970714285714286)
    stages = {s["label"]: s for s in summary["stages"]}
    assert stages["prepare-up"]["reference_population"] is None
    for label in ("half-rotate", "core", "decouple", "map-to-clock"):
        assert stages[label]["reference_population"] >= 0.99
    with open(tmp_path / "protocol_timeline.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "time_us"
    assert rows[0][-1] == "stage"
    assert len(rows) > 100


def test_protocol_honours_the_atom_count(runner, tmp_path):
    out = tmp_path / "p4"
    result = runner.invoke(
        main,
        [
            "protocol", "--n", "4", "--schedule", str(INPUTS / "schedules" / "protocol_n4.json"),
            "--out-prefix", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    stages = json.loads((tmp_path / "p4_summary.json").read_text())["stages"]
    references = json.loads((INPUTS / "references.json").read_text())["protocol"]
    expected = references["protocol_n4.json"]
    assert len(stages) == len(expected)
    for stage, ref in zip(stages, expected):
        if ref is None:
            assert stage["reference_population"] is None
        else:
            assert abs(stage["reference_population"] - ref) <= 1e-9
    # six atoms, the paper's largest case, with the table-2 core duration
    result = runner.invoke(main, ["protocol", "--n", "6", "--out-prefix", str(tmp_path / "p6")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "p6_summary.json").read_text())
    assert [s["label"] for s in summary["stages"]] == [
        "prepare-up", "half-rotate", "core", "decouple", "map-to-clock"
    ]
    assert summary["total_duration"] == pytest.approx(0.125 + 1.0 / 280.0 + 0.233 + 0.0025 + 0.125)
    # the README's N=6 stage reports
    readme = [0.994937, 0.924456, 0.922047, 0.917442]
    for stage, value in zip(summary["stages"][1:], readme, strict=True):
        assert abs(stage["reference_population"] - value) <= 5e-7


@pytest.mark.parametrize(
    "command, out_args",
    [
        ("master", []),
        ("protocol", []),
        # refused before the nested output directories are made
        ("master", ["--out-prefix", "a/b/x"]),
        ("noise", ["--out-prefix", "a/b/x"]),
        ("protocol", ["--out-prefix", "a/b/x"]),
    ],
    ids=["master", "protocol", "master a/b", "noise a/b", "protocol a/b"],
)
def test_schedule_for_another_atom_count_is_refused(
    runner, core_schedule_path, tmp_path, monkeypatch, command, out_args
):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(
        main, [command, "--n", "4", "--schedule", str(core_schedule_path), *out_args]
    )
    assert result.exit_code == 1
    assert result.output == f"Error: {command} failed: schedule is for N=3, run is for N=4\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["master", "noise", "protocol"])
def test_schedule_for_another_duration_is_refused(
    runner, core_schedule_path, tmp_path, monkeypatch, command, source
):
    # the run would follow the schedule's T = 0.141 and stamp 0.5 into its hash
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_optimize", lambda config: pytest.fail("optimized"))
    if source == "flag":
        args = ["--t", "0.5"]
    else:
        config = tmp_path / "cfg.yaml"
        config.write_text("run:\n  t_total: 0.5\n", encoding="utf-8")
        args = ["--config", str(config)]
    result = runner.invoke(main, [command, *args, "--schedule", str(core_schedule_path)])
    assert result.exit_code == 1
    assert result.output == f"Error: {command} failed: schedule is for T=0.141, run is for T=0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.yaml"] if source == "config" else [])


@pytest.fixture(scope="module")
def foreign_schedule_paths(tmp_path_factory, runner):
    """N=3, T=0.141 records made for another mode or another target form."""
    folder = tmp_path_factory.mktemp("foreign")
    flags = {"ideal": ["--mode", "ideal"], "cz": ["--mode", "rydberg", "--target", "cz-circuit"]}
    paths = {}
    for kind, args in flags.items():
        paths[kind] = folder / f"{kind}.json"
        result = runner.invoke(
            main, ["optimize", *args, "--n", "3", "--t", "0.141", "--out", str(paths[kind])]
        )
        assert result.exit_code == 0, result.output
    return paths


FOREIGN_REFUSALS = {
    "ideal": "schedule is for mode=ideal, run is for mode=rydberg",
    "cz": "schedule is for target=cz-circuit, run is for target=operator-product",
}


@pytest.mark.parametrize("kind", FOREIGN_REFUSALS)
@pytest.mark.parametrize("command", ["master", "noise", "protocol"])
def test_schedule_for_another_mode_or_target_is_refused(
    runner, foreign_schedule_paths, tmp_path, monkeypatch, command, kind
):
    # ideal-mode amplitudes are in J units, and a cz-circuit schedule aims
    # at another state; either would be replayed as a wrong answer
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_optimize", lambda config: pytest.fail("optimized"))
    path = foreign_schedule_paths[kind]
    assert load_result(path)["target"] == ("cz-circuit" if kind == "cz" else "operator-product")
    result = runner.invoke(main, [command, "--n", "3", "--t", "0.141", "--schedule", str(path)])
    assert result.exit_code == 1
    assert result.output == f"Error: {command} failed: {FOREIGN_REFUSALS[kind]}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def cz_record_n4(tmp_path_factory, runner):
    """An N=4, T=0.172 schedule optimized for the cz-circuit graph state,
    and a config that runs that target form."""
    folder = tmp_path_factory.mktemp("cz")
    path = folder / "cz.json"
    result = runner.invoke(main, [
        "optimize", "--mode", "rydberg", "--n", "4", "--t", "0.172", "--guess", "random",
        "--target", "cz-circuit", "--out", str(path),
    ])
    assert result.exit_code == 0, result.output
    config = folder / "cz.yaml"
    config.write_text("run:\n  target_form: cz-circuit\n", encoding="utf-8")
    return path, config


@pytest.mark.parametrize(
    "command,extra,key",
    [
        ("master", [], "closed_population"),
        ("noise", ["--field-sigma", "1e-9", "--samples", "2"], "mean_final"),
    ],
)
def test_a_cz_record_is_scored_against_the_cz_state(
    runner, cz_record_n4, tmp_path, monkeypatch, command, extra, key
):
    monkeypatch.chdir(tmp_path)
    path, config = cz_record_n4
    population = load_result(path)["final_population"]
    assert population > 0.99
    result = runner.invoke(main, [
        command, "--config", str(config), "--n", "4", "--t", "0.172", "--schedule", str(path),
        *extra,
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
    assert summary[key] == pytest.approx(population, abs=1e-9)


@pytest.mark.parametrize("args", [["protocol", "--n", "4", "--t", "0.172"], ["table", "3"]])
def test_runs_of_the_staged_protocol_refuse_the_cz_target(
    runner, cz_record_n4, tmp_path, monkeypatch, args
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_optimize", lambda config: pytest.fail("optimized"))
    _, config = cz_record_n4
    result = runner.invoke(main, [*args, "--config", str(config)])
    assert result.exit_code == 1
    assert result.output == (
        f"Error: {args[0]} failed: the staged protocol scores the operator-product graph "
        "state; it cannot run target_form cz-circuit\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(p.name for p in (INPUTS / "schedules").iterdir()))
def test_checked_in_schedules_without_a_target_are_accepted(name):
    # the records predate the target key and read as operator-product
    path = INPUTS / "schedules" / name
    record = load_result(path)
    assert "target" not in record
    cfg = ExperimentConfig(mode="rydberg", n_sites=record["N"], t_total=record["T"])
    budgets = []
    schedule, stamp, paths = cli._resolve_schedule(cfg, path, budgets.append, lambda: "paths")
    assert budgets == [len(record["amplitudes"])] and paths == "paths"
    assert schedule.t_total == record["T"]
    assert schedule.amplitudes.tolist() == record["amplitudes"]
    assert stamp["config_hash"] == config_hash(cfg, schedule)


def test_protocol_takes_the_duration_of_its_schedule(runner, core_schedule_path, tmp_path):
    # the table-2 default T applies only without a schedule
    record = json.loads(core_schedule_path.read_text())
    record["T"] = 0.15
    path = tmp_path / "long.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    out = tmp_path / "p"
    result = runner.invoke(main, ["protocol", "--schedule", str(path), "--out-prefix", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "p_summary.json").read_text())
    assert summary["total_duration"] == pytest.approx(0.125 + 1.0 / 280.0 + 0.15 + 0.0025 + 0.125)


def test_protocol_without_a_schedule_optimizes_as_table_2(runner, tmp_path):
    # table 2's duration comes with table 2's random guess: from the Gaussian
    # guess the N=4 ascent stalls (core 0.001349, clock 0.001364)
    summaries = {}
    for name, args in (("table", []), ("gaussian", ["--guess", "gaussian"])):
        out = tmp_path / name
        result = runner.invoke(main, ["protocol", "--n", "4", *args, "--out-prefix", str(out)])
        assert result.exit_code == 0, result.output
        summaries[name] = json.loads((tmp_path / f"{name}_summary.json").read_text())
    stages = {s["label"]: s["reference_population"] for s in summaries["table"]["stages"]}
    assert stages["core"] >= 0.98
    assert stages["map-to-clock"] >= 0.98
    cfg = ExperimentConfig(mode="rydberg", n_sites=4, t_total=0.172, guess_kind="random")
    assert summaries["table"]["config_hash"] == config_hash(cfg)
    # an explicit guess still wins
    assert summaries["gaussian"]["stages"][-1]["reference_population"] < 0.01


@pytest.mark.parametrize("command", ["master", "noise", "protocol"])
def test_config_hash_covers_the_schedule_file(runner, tmp_path, monkeypatch, command):
    # two schedules for the same N and T under the same flags are different
    # inputs and get different hashes; the same file gets the same hash
    monkeypatch.chdir(tmp_path)
    names = ("rydberg_n3.json", "protocol_n3_3.json", "rydberg_n3.json")
    hashes = []
    for name in names:
        path = INPUTS / "schedules" / name
        result = runner.invoke(main, [command, "--n", "3", "--t", "0.141", "--schedule", str(path)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        hashes.append(summary["config_hash"])
    assert hashes[0] != hashes[1]
    assert hashes[0] == hashes[2]
    schedule = schedule_from_record(load_result(INPUTS / "schedules" / names[0]))
    cfg = ExperimentConfig(mode="rydberg", n_sites=3, t_total=0.141)
    assert hashes[0] == config_hash(cfg, schedule) != config_hash(cfg)


def test_config_hash_without_a_schedule_is_the_config_alone(runner, tmp_path, monkeypatch):
    # the value every earlier version stamped on this run
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["master", "--n", "3", "--t", "0.141"])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "master_summary.json").read_text())
    cfg = ExperimentConfig(mode="rydberg", n_sites=3, t_total=0.141)
    assert summary["config_hash"] == config_hash(cfg) == (
        "97a6b174c628342397d01daa96b47489cba798ab2f8b2f52399f3f8f7fadfd85"
    )


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["master", "noise"])
def test_non_finite_schedule_duration_is_refused(
    runner, core_schedule_path, tmp_path, monkeypatch, command, duration
):
    monkeypatch.chdir(tmp_path)
    record = json.loads(core_schedule_path.read_text())
    record["T"] = duration
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    result = runner.invoke(main, [command, "--schedule", str(path)])
    assert result.exit_code == 1
    assert f"Error: {command} failed: t_total must be finite and positive" in result.output
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == [path]


def _without(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


#: Edit of a saved schedule record that makes it malformed -> the end of
#: the one-line refusal it gets.
MALFORMED_SCHEDULES = {
    "list": (lambda record: [record], "a schedule record is a JSON object, not a list"),
    "no-amplitudes": (_without("amplitudes"), "schedule record needs a list of numbers in amplitudes"),
    "string-T": (lambda record: {**record, "T": "0.141"}, "schedule record needs a numeric T, not '0.141'"),
    "no-T": (_without("T"), "schedule record needs a numeric T, not None"),
}


@pytest.mark.parametrize("malformed", MALFORMED_SCHEDULES)
@pytest.mark.parametrize("command", ["master", "protocol"])
def test_malformed_schedule_file_is_refused_in_one_line(
    runner, core_schedule_path, tmp_path, monkeypatch, command, malformed
):
    monkeypatch.chdir(tmp_path)
    edit, message = MALFORMED_SCHEDULES[malformed]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(core_schedule_path.read_text()))), encoding="utf-8")
    result = runner.invoke(main, [command, "--schedule", str(path)])
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith(f"Error: {command} failed: ") and line.endswith(message)
    assert list(tmp_path.iterdir()) == [path]


def test_protocol_beyond_the_level_budget_is_refused(runner, tmp_path, monkeypatch):
    """Seven atoms are refused at once, with or without a time: neither the
    missing time nor a 7-atom optimization comes first."""
    calls = []
    monkeypatch.setattr(cli, "run_optimize", lambda *a, **k: calls.append(a))
    for t_args in ([], ["--t", "0.25"]):
        result = runner.invoke(
            main, ["protocol", "--n", "7", *t_args, "--out-prefix", str(tmp_path / "p7")]
        )
        assert calls == []
        assert result.exit_code == 1
        assert result.output == (
            "Error: protocol failed: 17233281 block entries exceed the block budget of "
            "10000000 entries\n"
        )
        assert list(tmp_path.iterdir()) == []


#: Durations every command refuses: zero, negative and non-finite.
BAD_DURATIONS = ("0", "-1", "nan", "inf")


#: A negative seed -> its refusal, which names the seed's field.
SEED_REFUSALS = {
    ("optimize", "--n", "3", "--t", "0.141", "--guess", "random", "--seed", "-1"):
        "seed must be a non-negative integer, not -1",
    ("noise", "--n", "3", "--t", "0.141", "--base-seed", "-5", "--position-sigma", "1,1,1"):
        "base_seed must be a non-negative integer, not -5",
    ("noise", "--n", "3", "--t", "0.141", "--base-seed", "-60", "--field-sigma", "1"):
        "base_seed must be a non-negative integer, not -60",
    # field seeds start at base_seed + samples, so this one used to run
    ("noise", "--n", "3", "--t", "0.141", "--base-seed", "-5", "--field-sigma", "1"):
        "base_seed must be a non-negative integer, not -5",
}


#: A --position-sigma that is not three numbers -> its refusal, which names the option.
SIGMA_REFUSALS = {
    ("noise", "--n", "3", "--t", "0.141", "--position-sigma", sigma):
        f"--position-sigma needs three comma-separated values in nm, not '{sigma}'"
    for sigma in ("1,a,2", "1,2", "1,2,3,4")
}


#: Inputs checked before a nested output directory -> their refusal.
NESTED_REFUSALS = {
    ("table", "1", "--seed", "-1", "--out", "a/b/t.csv"):
        "seed must be a non-negative integer, not -1",
    ("table", "2", "--config", "zero_slices.yaml", "--out", "q/t.csv"):
        "n_slices must be at least 1, not 0",
    ("analytic", "--c1", "5", "--c2", "3", "--scan", "--out-prefix", "d/e/x"):
        "requires c2 >= c1",
    ("analytic", "--j", "-1", "--scan", "--out-prefix", "d/e/x"):
        "requires a finite j > 0",
}


@pytest.mark.parametrize(
    "args",
    [
        ["scan-t", "--t-min", "0.5", "--t-max", "0.1", "--steps", "5"],
        ["scan-t", "--steps", "1"],
        ["noise", "--n", "3", "--t", "0.141", "--samples", "0"],
        ["noise", "--n", "3", "--t", "0.141", "--field-sigma", "-1"],
        ["optimize", "--n", "3", "--t", "0.141", "--slices", "0"],
        ["optimize", "--n", "3", "--t", "0.141", "--slices", "300000000"],
        ["scan-t", "--n", "3", "--steps", "100000000"],
        ["analytic", "--scan", "--b-points", "100000", "--t-points", "100000"],
        ["analytic", "--scan", "--b-points", "-3"],
        ["analytic", "--scan", "--t-points", "0"],
        ["analytic", "--scan", "--b-points", "-3", "--t-points", "-3"],
        *(["optimize", "--n", "3", "--t", t] for t in BAD_DURATIONS),
        *(["scan-t", "--t-min", t, "--t-max", "0.16", "--steps", "3"] for t in BAD_DURATIONS),
        *(["scan-t", "--t-min", "0.12", "--t-max", t, "--steps", "3"] for t in BAD_DURATIONS),
        ["master", "--n", "3", "--t", "0.141", "--gamma-up", "-1"],
        ["master", "--n", "3", "--t", "0.141", "--gamma-up", "nan"],
        ["noise", "--n", "3", "--t", "0.141", "--field-sigma", "nan", "--samples", "3"],
        ["noise", "--n", "3", "--t", "0.141", "--position-sigma", "nan,0,0"],
        ["table", "3", "--config", "negative_decay.yaml"],
        ["table", "3", "--config", "negative_decay.yaml", "--out", "a/b/t.csv"],
        ["master", "--n", "3", "--t", "0.141", "--gamma-up", "-1", "--out-prefix", "a/b/x"],
        *map(list, SEED_REFUSALS),
        *map(list, SIGMA_REFUSALS),
        *map(list, NESTED_REFUSALS),
    ],
    ids=lambda args: " ".join(args),
)
def test_invalid_values_end_in_a_message_not_a_traceback(runner, tmp_path, monkeypatch, args):
    """Refused before any schedule is optimized, any result printed or any
    output directory made."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "negative_decay.yaml").write_text("jumps:\n  gamma_up: -1\n", encoding="utf-8")
    (tmp_path / "zero_slices.yaml").write_text("guess:\n  guess_slices: 0\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "run_optimize", lambda *a, **k: calls.append(a))
    result = runner.invoke(main, args)
    assert calls == []
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {args[0]} failed: ")
    assert result.output.count("\n") == 1
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["negative_decay.yaml", "zero_slices.yaml"]
    if "negative_decay.yaml" in args:
        assert "Error: table failed: decay rates must be non-negative" in result.output
    for refusals in (SEED_REFUSALS, SIGMA_REFUSALS, NESTED_REFUSALS):
        if tuple(args) in refusals:
            assert result.output == f"Error: {args[0]} failed: {refusals[tuple(args)]}\n"
    if args[0] == "analytic" and "-3" in args:
        assert result.output == "Error: analytic failed: --b-points must be positive, not -3\n"
    if args[0] == "analytic" and "0" in args:
        assert result.output == "Error: analytic failed: --t-points must be positive, not 0\n"
    if args[0] == "analytic" and "100000" in args:
        assert result.output == (
            "Error: analytic failed: 100000 B points x 100000 t points exceed the scan "
            "budget of 10000000 populations\n"
        )
    if args[0] == "scan-t" and set(args) & set(BAD_DURATIONS):
        # the refusal names the bad bound, not the duration it stands in for
        bound = "t_min" if args[2] in BAD_DURATIONS else "t_max"
        assert result.output == f"Error: scan-t failed: {bound} must be finite and positive\n"


#: 101 boundaries x 4 magnetization sectors of three atoms, just over the budget
MASTER_BUDGET = (["master"], 403, "return budget of 403 amplitudes")
#: the 20-slice pulses pass; the 100-slice core's 100 x 5^3 states do not
PROTOCOL_BUDGET = (["protocol"], 100 * 5**3 - 1, "stage budget of 12499 amplitudes")
NESTED = ["--out-prefix", "a/b/x"]


@pytest.mark.parametrize(
    "args, budget, ending",
    [
        MASTER_BUDGET,
        PROTOCOL_BUDGET,
        # nor are nested output directories made
        (MASTER_BUDGET[0] + NESTED, *MASTER_BUDGET[1:]),
        (PROTOCOL_BUDGET[0] + NESTED, *PROTOCOL_BUDGET[1:]),
        # 2 samples x 101 boundaries
        (["noise", "--samples", "2", *NESTED], 201, "ensemble budget of 201 populations"),
    ],
    ids=["master", "protocol", "master a/b", "protocol a/b", "noise a/b"],
)
def test_schedule_beyond_the_trace_budget_is_refused_in_one_line(
    runner, tmp_path, monkeypatch, args, budget, ending
):
    """A checked-in 100-slice schedule at a budget just below it: refused in
    one line, before its amplitudes or states are allocated, and nothing is
    written."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(operators, "MAX_TRACE_STACK", budget)
    result = runner.invoke(main, [*args, "--n", "3", "--schedule", SCHEDULE_N3])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith(f"Error: {args[0]} failed: ") and "Traceback" not in result.output
    assert line.endswith(f"exceed the {ending}")
    assert list(tmp_path.iterdir()) == []


def test_guess_amplitude_that_overflows_is_refused_without_a_warning(runner, tmp_path):
    # b0 / (sqrt(2 pi) sigma) overflows for b0 = 1e308: the schedule's
    # refusal is the whole output, with warnings turned into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(
            main, ["optimize", "--n", "3", "--t", "0.14", "--b0", "1e308",
                   "--out", str(tmp_path / "s.json")],
        )
    assert isinstance(result.exception, SystemExit)
    assert result.output == (
        "Error: optimize failed: slice amplitudes and their field areas must be finite\n"
    )
    assert list(tmp_path.iterdir()) == []


SCHEDULE_N3 = str(INPUTS / "schedules" / "rydberg_n3.json")


#: Command -> its arguments with outputs under a/b/, and the files it writes there.
NESTED_OUTPUTS = {
    "optimize": (["--n", "3", "--t", "0.141", "--out", "a/b/s.json"],
                 ["s.convergence.csv", "s.json"]),
    "table": (["1", "--out", "a/b/t.csv"], ["t.csv"]),
    "scan-t": (["--n", "3", "--t-min", "0.12", "--t-max", "0.16", "--steps", "3",
                "--out-prefix", "a/b/x"], ["x_curve.csv", "x_peaks.json"]),
    "noise": (["--n", "3", "--samples", "2", "--schedule", SCHEDULE_N3, "--out-prefix", "a/b/x"],
              ["x_summary.json", "x_trace.csv"]),
    "master": (["--n", "3", "--schedule", SCHEDULE_N3, "--out-prefix", "a/b/x"],
               ["x_summary.json", "x_trace.csv"]),
    "analytic": (["--scan", "--b-points", "3", "--t-points", "3", "--out-prefix", "a/b/x"],
                 ["x_grid.csv", "x_maxima.json"]),
    "protocol": (["--n", "3", "--schedule", SCHEDULE_N3, "--out-prefix", "a/b/x"],
                 ["x_summary.json", "x_timeline.csv"]),
}


@pytest.mark.parametrize("command", NESTED_OUTPUTS)
def test_outputs_may_name_a_directory_that_does_not_exist(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    args, written = NESTED_OUTPUTS[command]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == written


#: What each command computes, by the name the CLI calls it under.
COMPUTATIONS = (
    "run_optimize", "scan_duration", "ensemble_average", "open_system_trace",
    "run_full_protocol", "scan_constant_field",
)


@pytest.mark.parametrize("command", NESTED_OUTPUTS)
def test_an_output_under_a_file_fails_before_any_work(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    for name in COMPUTATIONS:
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("computed"))
    (tmp_path / "a").write_text("", encoding="utf-8")
    args, _ = NESTED_OUTPUTS[command]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {command} failed: [Errno ")
    assert result.output.count("\n") == 1
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]


def test_noise_beyond_the_trace_budget_is_refused_at_once(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    result = runner.invoke(
        main, ["noise", "--n", "3", "--schedule", SCHEDULE_N3, "--samples", "100000000"]
    )
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.output == (
        "Error: noise failed: 100000000 samples x 101 slice boundaries exceed the "
        "ensemble budget of 10000000 populations\n"
    )
    assert list(tmp_path.iterdir()) == []


RETURN_REFUSAL = (
    "3000001 slice boundaries x 7 sectors exceed the return budget of 10000000 amplitudes"
)


@pytest.mark.parametrize(
    "args, slices, message",
    [
        (
            ["noise", "--n", "6", "--t", "0.233", "--guess", "random", "--samples", "100000000"],
            3000000,
            "100000000 samples x 11 slice boundaries exceed the ensemble budget of "
            "10000000 populations",
        ),
        (["master", "--n", "6", "--t", "0.233", "--config", "long_guess.yaml"], 3000000,
         RETURN_REFUSAL),
        (
            ["protocol", "--n", "6", "--config", "long_guess.yaml"],
            3000000,
            "3000000 slice boundaries x 15625 basis states exceed the stage budget of "
            "10000000 amplitudes",
        ),
        # table 3 checks its largest row, N=6, before its first (N=3) row
        (["table", "3", "--config", "long_guess.yaml"], 3000000, RETURN_REFUSAL),
        (["table", "3", "--config", "long_guess.yaml", "--out", "a/b/t.csv"], 3000000,
         RETURN_REFUSAL),
        # within the return budget, beyond the stage budget of its protocol column
        (
            ["table", "3", "--config", "long_guess.yaml"],
            500000,
            "500000 slice boundaries x 15625 basis states exceed the stage budget of "
            "10000000 amplitudes",
        ),
    ],
    ids=["noise", "master", "protocol", "table", "table a/b", "table stage"],
)
def test_noise_to_be_optimized_is_held_to_the_trace_budget_first(
    runner, tmp_path, monkeypatch, args, slices, message
):
    """Without a schedule the guess fixes the slice count, so each command's
    budget is checked before any optimization or output directory."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "long_guess.yaml"
    config.write_text(f"guess:\n  guess_slices: {slices}\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "run_optimize", lambda *a, **k: calls.append(a))
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert calls == []
    assert result.exit_code == 1
    assert result.output == f"Error: {args[0]} failed: {message}\n"
    assert list(tmp_path.iterdir()) == [config]


def test_scan_t_small_grid(runner, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = runner.invoke(
        main,
        [
            "scan-t", "--config", str(config), "--mode", "rydberg", "--n", "3",
            "--t-min", "0.12", "--t-max", "0.16", "--steps", "5",
        ],
    )
    assert result.exit_code == 0, result.output
    with open(tmp_path / "scan_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "population"]
    assert len(rows) == 1 + 5
    times = [float(r[0]) for r in rows[1:]]
    assert times == sorted(times)
    assert times[0] == pytest.approx(0.12)
    assert times[-1] == pytest.approx(0.16)
    peaks = json.loads((tmp_path / "scan_peaks.json").read_text())
    # the documented sweet spot near 0.14 us sits inside the window
    assert peaks["peaks"], "expected an interior maximum"
    best = peaks["peaks"][0]
    assert best["t"] == pytest.approx(0.14, abs=0.011)
    assert best["population"] > 0.99


def test_table_1_ideal(runner, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = runner.invoke(main, ["table", "1", "--config", str(config)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "J*T", "population", "config_hash", "constants_version"]
    assert len(rows) == 5
    expected = {3: 1.0, 4: 0.9931, 5: 0.9710, 6: 0.9346}
    for row in rows[1:]:
        n = int(row[0])
        assert float(row[2]) == pytest.approx(expected[n], abs=0.005)
    # the README's three-atom value at J*T = 2.3
    assert rows[1][:2] == ["3", "2.3"]
    assert abs(float(rows[1][2]) - 0.996920) <= 5e-7
    table_lines = [line for line in result.output.splitlines() if line.strip()]
    assert table_lines[0].split() == ["N", "J*T", "population"]


def test_table_3_optimizes_each_case_once(runner, tmp_path, monkeypatch):

    monkeypatch.setattr(cli, "TABLE_RYDBERG", cli.TABLE_RYDBERG[:2])
    original_optimize, original_protocol = cli.run_optimize, cli.run_full_protocol
    calls, plans = [], []

    def counting_optimize(config, *args, **kwargs):
        calls.append(config.t_total)
        return original_optimize(config, *args, **kwargs)

    def recording_protocol(plan):
        plans.append((plan.n_sites, plan.stages[2].schedule.t_total))
        return original_protocol(plan)

    monkeypatch.setattr(cli, "run_optimize", counting_optimize)
    monkeypatch.setattr(cli, "run_full_protocol", recording_protocol)
    out = tmp_path / "table3.csv"
    result = runner.invoke(main, ["table", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == [0.141, 0.172]
    # each row's preparation loss comes from its own protocol run
    assert plans == [(3, 0.141), (4, 0.172)]
    with open(out, newline="") as fh:
        rows = [
            {key: float(value) for key, value in row.items()
             if key not in ("config_hash", "constants_version")}
            for row in csv.DictReader(fh)
        ]
    assert [row["n"] for row in rows] == [3, 4]
    for row in rows:
        assert row["budgeted"] == (
            row["closed"] - row["dissipation_delta"] - row["vibration_delta"] - row["prep_delta"]
        )
        assert row["closed"] > 0.99
        assert 0.0 < row["dissipation_delta"] < 0.01
    assert rows[0]["prep_delta"] < rows[1]["prep_delta"]


@pytest.mark.parametrize("seed_args,expected_seed", [([], 1), (["--seed", "5"], 5)])
def test_table_2_passes_the_seed_to_the_guess(
    runner, tmp_path, monkeypatch, seed_args, expected_seed
):

    monkeypatch.setattr(cli, "TABLE_RYDBERG", cli.TABLE_RYDBERG[:1])
    original = cli.run_optimize
    guesses = []

    def recording_optimize(config, *args, **kwargs):
        guesses.append(config.guess)
        return original(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_optimize", recording_optimize)
    out = tmp_path / "table2.csv"
    result = runner.invoke(main, ["table", "2", "--out", str(out), *seed_args])
    assert result.exit_code == 0, result.output
    assert [(g.kind, g.seed) for g in guesses] == [("random", expected_seed)]


@pytest.mark.parametrize(
    "guess_section,guess_args,expected_kind",
    [
        ("", [], "random"),
        ("guess:\n  guess_kind: gaussian\n", [], "gaussian"),
        ("", ["--guess", "gaussian"], "gaussian"),
        ("guess:\n  guess_kind: random\n", ["--guess", "gaussian"], "gaussian"),
    ],
)
def test_table_2_guess_default_with_a_config_file(
    runner, tmp_path, monkeypatch, guess_section, guess_args, expected_kind
):

    monkeypatch.setattr(cli, "TABLE_RYDBERG", cli.TABLE_RYDBERG[:1])
    original = cli.run_optimize
    kinds = []

    def recording_optimize(config, *args, **kwargs):
        kinds.append(config.guess.kind)
        return original(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_optimize", recording_optimize)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"output:\n  output_dir: {tmp_path / 'results'}\n{guess_section}")
    out = tmp_path / "table2.csv"
    result = runner.invoke(
        main, ["table", "2", "--config", str(cfg), "--out", str(out), *guess_args]
    )
    assert result.exit_code == 0, result.output
    assert kinds == [expected_kind]
