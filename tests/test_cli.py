"""Command-line interface: outputs, determinism, and error handling."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spingraph import __version__
from spingraph.cli import main


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
    assert result.exit_code != 0
    assert "config error" in result.output
    assert not out.exists()


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


def test_master_with_saved_schedule(runner, core_schedule_path, tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"output:\n  output_dir: {tmp_path}\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["master", "--config", str(config), "--schedule", str(core_schedule_path)],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "master_summary.json").read_text())
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
    table_lines = [line for line in result.output.splitlines() if line.strip()]
    assert table_lines[0].split() == ["N", "J*T", "population"]


def test_table_3_optimizes_each_case_once(runner, tmp_path, monkeypatch):
    import spingraph.cli as cli

    monkeypatch.setattr(cli, "TABLE_RYDBERG", cli.TABLE_RYDBERG[:1])
    original = cli.run_optimize
    calls = []

    def counting_optimize(config, *args, **kwargs):
        calls.append(config.t_total)
        return original(config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_optimize", counting_optimize)
    out = tmp_path / "table3.csv"
    result = runner.invoke(main, ["table", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == [0.141]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = {key: float(value) for key, value in rows[0].items()
           if key not in ("config_hash", "constants_version")}
    assert row["n"] == 3
    assert row["budgeted"] == (
        row["closed"] - row["dissipation_delta"] - row["vibration_delta"] - row["prep_delta"]
    )
    assert row["closed"] > 0.99
    assert 0.0 < row["dissipation_delta"] < 0.01


@pytest.mark.parametrize("seed_args,expected_seed", [([], 1), (["--seed", "5"], 5)])
def test_table_2_passes_the_seed_to_the_guess(
    runner, tmp_path, monkeypatch, seed_args, expected_seed
):
    import spingraph.cli as cli

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
