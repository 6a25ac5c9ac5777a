"""Command-line surface: optimize schedules, reproduce tables, run noise
ensembles, duration scans, master-equation and protocol simulations.

Every command accepts an optional YAML config file; command-line flags
override file values. Outputs are CSV for traces, JSON for records, and
plain text for tables. Each output embeds the merged-config hash and the
interaction-constants version. Given the same config and seeds, reruns
reproduce every numeric output bit for bit.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import __version__
from .analytic import (
    constant_field_params,
    constant_field_population,
    propagated_population,
    scan_constant_field,
    write_scan_csv,
)
from .chain import RydbergModel
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_guess_spec,
    build_jump_channels,
    build_model,
    build_noise_spec,
    build_target_spec,
    config_hash,
    constants_version,
    load_config,
)
from .dynamics import closed_system_trace, ensemble_average, evolve_master
from .grape import (
    GrapeConfig,
    GrapeError,
    optimize as run_optimize,
    scan_duration,
    schedule_from_record,
    schedule_to_record,
    save_result,
    load_result,
)
from .operators import EMISSION_BASIS
from .protocol import run_full_protocol, standard_plan, write_timeline_csv
from .targets import complete_graph_state, plus_product_state

TABLE_IDEAL = ((3, 2.3), (4, 2.808), (5, 3.386), (6, 3.952))
TABLE_RYDBERG = ((3, 0.141), (4, 0.172), (5, 0.203), (6, 0.233))

#: Symmetric distance offsets averaged for the vibration row of the error budget.
VIBRATION_OFFSETS_NM = (100.0, -100.0)


def _fail(message: str) -> NoReturn:
    raise click.ClickException(message)


def _merged_config(config_path, **overrides) -> ExperimentConfig:
    try:
        cfg = load_config(config_path) if config_path else ExperimentConfig()
        return apply_overrides(cfg, **overrides)
    except ConfigError as exc:
        _fail(f"config error: {exc}")


def _grape_config(cfg: ExperimentConfig) -> GrapeConfig:
    if cfg.t_total is None:
        _fail("no evolution time given (set run.t_total or pass --t)")
    return GrapeConfig(
        model=build_model(cfg),
        t_total=cfg.t_total,
        guess=build_guess_spec(cfg),
        target=build_target_spec(cfg),
    )


def _outdir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _stamp(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "constants_version": constants_version(cfg),
        "tool_version": __version__,
    }


def _schedule_record(cfg: ExperimentConfig, result) -> dict:
    record = schedule_to_record(
        result.schedule,
        mode=cfg.mode,
        n_sites=cfg.n_sites,
        seed=cfg.seed if cfg.guess_kind == "random" else None,
        constants_version=constants_version(cfg),
        phi_history=result.phi_history,
        final_population=result.final_population,
    )
    record["config_hash"] = config_hash(cfg)
    record["converged"] = result.converged
    return record


def _resolve_schedule(cfg: ExperimentConfig, schedule_path):
    """Load a persisted schedule, or optimize one on demand."""
    if schedule_path:
        record = load_result(schedule_path)
        return schedule_from_record(record), record.get("final_population")
    result = run_optimize(_grape_config(cfg))
    return result.schedule, result.final_population


config_option = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    default=None, help="YAML config file; flags override its values.",
)


@click.group()
@click.version_option(version=__version__, prog_name="spingraph")
def main() -> None:
    """Global-field pulse engineering for complete-graph-state preparation."""


@main.command("optimize")
@config_option
@click.option("--mode", type=click.Choice(["ideal", "rydberg"]), default=None)
@click.option("--n", "n_sites", type=int, default=None, help="Atom count.")
@click.option("--t", "t_total", type=float, default=None, help="Evolution time.")
@click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None)
@click.option("--seed", type=int, default=None, help="Random-guess seed.")
@click.option("--b0", "guess_b0", type=float, default=None, help="Guess amplitude scale.")
@click.option("--slices", "guess_slices", type=int, default=None, help="Slice count.")
@click.option("--target", "target_form", type=click.Choice(["operator-product", "cz-circuit"]), default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Schedule JSON path.")
def cmd_optimize(config_path, out, **overrides) -> None:
    """Optimize a field schedule and persist it as JSON plus a convergence CSV."""
    cfg = _merged_config(config_path, **overrides)
    try:
        result = run_optimize(_grape_config(cfg))
    except GrapeError as exc:
        _fail(f"optimization failed: {exc}")
    outdir = _outdir(cfg)
    json_path = Path(out) if out else outdir / f"schedule_{cfg.mode}_n{cfg.n_sites}.json"
    save_result(json_path, _schedule_record(cfg, result))
    csv_path = json_path.with_suffix(".convergence.csv")
    _write_csv(
        csv_path,
        ["iteration", "phi"],
        [[i, repr(p)] for i, p in enumerate(result.phi_history)],
    )
    click.echo(
        f"final population {result.final_population:.6f} after "
        f"{result.iterations} iterations (converged={result.converged})"
    )
    click.echo(f"schedule: {json_path}")
    click.echo(f"convergence: {csv_path}")


def _optimized_population(cfg: ExperimentConfig) -> float:
    return run_optimize(_grape_config(cfg)).final_population


def _table_rows_closed(cfg: ExperimentConfig, mode: str):
    cases = TABLE_IDEAL if mode == "ideal" else TABLE_RYDBERG
    rows = []
    for n, t in cases:
        case_cfg = apply_overrides(cfg, mode=mode, n_sites=n, t_total=t)
        rows.append((n, t, _optimized_population(case_cfg)))
    return rows


def _open_system_run(cfg: ExperimentConfig, model, schedule):
    """Master equation from |+>^N towards the graph state on the emission basis."""
    psi0 = plus_product_state(model.n_sites, basis=EMISSION_BASIS)
    target = complete_graph_state(model.n_sites, EMISSION_BASIS)
    rho0 = np.outer(psi0, psi0.conj())
    return evolve_master(model, schedule, build_jump_channels(cfg), rho0, target=target)


def _dissipation_delta(case_cfg: ExperimentConfig, model, result) -> float:
    open_run = _open_system_run(case_cfg, model, result.schedule)
    return result.final_population - float(open_run.populations[-1])


@main.command("table")
@click.argument("which", type=click.Choice(["1", "2", "3"]))
@config_option
@click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV path.")
def cmd_table(which, config_path, out, **overrides) -> None:
    """Reproduce a results table (1 ideal, 2 dipolar chain, 3 error budget).

    Tables 2 and 3 default to the documented random guess (seed 1 unless
    --seed says otherwise); the Gaussian guess stalls in a flat region for
    the N=4 chain case.
    """
    cfg = _merged_config(config_path, **overrides)
    if which in ("2", "3") and overrides.get("guess_kind") is None and config_path is None:
        cfg = apply_overrides(cfg, guess_kind="random")
    outdir = _outdir(cfg)

    if which == "1":
        rows = _table_rows_closed(cfg, "ideal")
        header = ["n", "J*T", "population"]
        click.echo(f"{'N':>3} {'J*T':>8} {'population':>12}")
        for n, t, p in rows:
            click.echo(f"{n:>3} {t:>8.3f} {p:>12.4f}")
    elif which == "2":
        rows = _table_rows_closed(cfg, "rydberg")
        header = ["n", "T_us", "population"]
        click.echo(f"{'N':>3} {'T(us)':>8} {'population':>12}")
        for n, t, p in rows:
            click.echo(f"{n:>3} {t:>8.3f} {p:>12.4f}")
    else:
        rows = _error_budget_rows(cfg)
        header = [
            "n", "T_us", "closed", "dissipation_delta", "vibration_delta",
            "prep_delta", "budgeted",
        ]
        click.echo(
            f"{'N':>3} {'T(us)':>7} {'closed':>8} {'diss':>8} {'vibr':>8} "
            f"{'prep':>8} {'budget':>8}"
        )
        for row in rows:
            click.echo(
                f"{row[0]:>3} {row[1]:>7.3f} {row[2]:>8.4f} {row[3]:>8.4f} "
                f"{row[4]:>8.4f} {row[5]:>8.4f} {row[6]:>8.4f}"
            )

    csv_path = Path(out) if out else outdir / f"table{which}.csv"
    stamp = _stamp(cfg)
    _write_csv(
        csv_path,
        header + ["config_hash", "constants_version"],
        [
            list(map(repr, row)) + [stamp["config_hash"], stamp["constants_version"]]
            for row in rows
        ],
    )
    click.echo(f"csv: {csv_path}")


def _vibration_delta(model: RydbergModel, result) -> float:
    n = model.n_sites
    target = complete_graph_state(n)
    psi0 = plus_product_state(n)
    deltas = []
    for offset in VIBRATION_OFFSETS_NM:
        geometry = model.geometry.with_delta_r(offset / 1000.0)
        shifted = closed_system_trace(
            RydbergModel(geometry), result.schedule, psi0, target
        )[-1]
        deltas.append(result.final_population - shifted)
    return float(np.mean(deltas))


def _protocol_prep_delta(model: RydbergModel, result) -> float:
    protocol = run_full_protocol(standard_plan(model.geometry, result.schedule))
    return result.final_population - protocol.stage_reports[-1].reference_population


def _error_budget_rows(cfg: ExperimentConfig):
    """One optimization per (N, T) case, shared by every column of its row.
    The staged protocol is built for three atoms, so the preparation loss
    of the first (N=3) case applies to every row."""
    cases = []
    for n, t in TABLE_RYDBERG:
        case_cfg = apply_overrides(cfg, mode="rydberg", n_sites=n, t_total=t)
        cases.append((case_cfg, build_model(case_cfg), run_optimize(_grape_config(case_cfg))))
    prep = _protocol_prep_delta(*cases[0][1:])
    rows = []
    for case_cfg, model, result in cases:
        closed = result.final_population
        diss = _dissipation_delta(case_cfg, model, result)
        vibr = _vibration_delta(model, result)
        rows.append(
            (case_cfg.n_sites, case_cfg.t_total, closed, diss, vibr, prep,
             closed - diss - vibr - prep)
        )
    return rows


@main.command("noise")
@config_option
@click.option("--mode", type=click.Choice(["ideal", "rydberg"]), default=None)
@click.option("--n", "n_sites", type=int, default=None)
@click.option("--t", "t_total", type=float, default=None)
@click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--position-sigma", default=None, help="Comma triple in nm, e.g. 193.5,193.5,1242.9.")
@click.option("--field-sigma", type=float, default=None, help="Per-slice sigma, rad/us.")
@click.option("--delta-r", type=float, default=None, help="Deterministic distance offset, nm.")
@click.option("--samples", type=int, default=None)
@click.option("--base-seed", type=int, default=None)
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out-prefix", default="noise", help="Output file prefix.")
def cmd_noise(config_path, position_sigma, schedule_path, out_prefix, **overrides) -> None:
    """Monte Carlo ensemble under geometric and/or field noise."""
    if position_sigma is not None:
        parts = position_sigma.split(",")
        if len(parts) != 3:
            _fail("--position-sigma needs three comma-separated values")
        overrides["position_sigma"] = tuple(float(p) for p in parts)
    cfg = _merged_config(config_path, **overrides)
    if cfg.mode != "rydberg" and (
        any(s > 0 for s in cfg.position_sigma) or cfg.delta_r is not None
    ):
        _fail("geometry noise requires rydberg mode")
    schedule, _ = _resolve_schedule(cfg, schedule_path)
    model = build_model(cfg)
    spec = build_noise_spec(cfg)
    result = ensemble_average(
        model,
        schedule,
        spec,
        plus_product_state(cfg.n_sites),
        complete_graph_state(cfg.n_sites),
    )
    outdir = _outdir(cfg)
    trace_path = outdir / f"{out_prefix}_trace.csv"
    _write_csv(
        trace_path,
        ["time", "mean", "min", "max"],
        [
            [repr(float(t)), repr(float(m)), repr(float(lo)), repr(float(hi))]
            for t, m, lo, hi in zip(
                result.times, result.mean_trace, result.min_trace, result.max_trace
            )
        ],
    )
    summary = {
        "mean_final": result.mean_final,
        "std_final": result.std_final,
        "sample_finals": [float(x) for x in result.sample_finals],
        "samples": spec.samples,
        "base_seed": spec.base_seed,
        **_stamp(cfg),
    }
    summary_path = outdir / f"{out_prefix}_summary.json"
    _write_json(summary_path, summary)
    click.echo(f"mean final population {result.mean_final:.6f} (std {result.std_final:.6f})")
    click.echo(f"trace: {trace_path}")
    click.echo(f"summary: {summary_path}")


@main.command("scan-t")
@config_option
@click.option("--mode", type=click.Choice(["ideal", "rydberg"]), default=None)
@click.option("--n", "n_sites", type=int, default=None)
@click.option("--t-min", type=float, default=None)
@click.option("--t-max", type=float, default=None)
@click.option("--steps", "scan_steps", type=int, default=None)
@click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-prefix", default="scan", help="Output file prefix.")
def cmd_scan_t(config_path, out_prefix, **overrides) -> None:
    """Optimize across a duration grid and report the population peaks."""
    cfg = _merged_config(config_path, **overrides)
    grape_cfg = GrapeConfig(
        model=build_model(cfg),
        t_total=cfg.t_max,
        guess=build_guess_spec(cfg),
        target=build_target_spec(cfg),
    )
    try:
        scan = scan_duration(grape_cfg, cfg.t_min, cfg.t_max, cfg.scan_steps)
    except GrapeError as exc:
        _fail(f"scan failed: {exc}")
    outdir = _outdir(cfg)
    curve_path = outdir / f"{out_prefix}_curve.csv"
    _write_csv(
        curve_path,
        ["t", "population"],
        [[repr(t), repr(p)] for t, p in scan.points],
    )
    peaks_path = outdir / f"{out_prefix}_peaks.json"
    _write_json(
        peaks_path,
        {"peaks": [{"t": t, "population": p} for t, p in scan.maxima], **_stamp(cfg)},
    )
    click.echo("peaks (ranked by population):")
    for t, p in scan.maxima:
        click.echo(f"  T={t:.4f}  population={p:.4f}")
    click.echo(f"curve: {curve_path}")
    click.echo(f"peaks: {peaks_path}")


@main.command("master")
@config_option
@click.option("--n", "n_sites", type=int, default=None)
@click.option("--t", "t_total", type=float, default=None)
@click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--gamma-up", type=float, default=None, help="Decay rate of up, 1/us.")
@click.option("--gamma-down", type=float, default=None, help="Decay rate of down, 1/us.")
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out-prefix", default="master", help="Output file prefix.")
def cmd_master(config_path, schedule_path, out_prefix, **overrides) -> None:
    """Master-equation run with spontaneous emission; reports the closed-system delta."""
    cfg = _merged_config(config_path, mode="rydberg", **overrides)
    schedule, _ = _resolve_schedule(cfg, schedule_path)
    model = build_model(cfg)
    n = cfg.n_sites
    psi0, target = plus_product_state(n), complete_graph_state(n)
    closed = closed_system_trace(model, schedule, psi0, target)[-1]
    result = _open_system_run(cfg, model, schedule)
    outdir = _outdir(cfg)
    trace_path = outdir / f"{out_prefix}_trace.csv"
    _write_csv(
        trace_path,
        ["time", "population"],
        [[repr(float(t)), repr(float(p))] for t, p in zip(result.times, result.populations)],
    )
    summary_path = outdir / f"{out_prefix}_summary.json"
    _write_json(
        summary_path,
        {
            "closed_population": float(closed),
            "open_population": float(result.populations[-1]),
            "dissipation_delta": float(closed - result.populations[-1]),
            **_stamp(cfg),
        },
    )
    click.echo(
        f"closed {closed:.6f}  open {result.populations[-1]:.6f}  "
        f"delta {closed - result.populations[-1]:.6f}"
    )
    click.echo(f"trace: {trace_path}")
    click.echo(f"summary: {summary_path}")


@main.command("analytic")
@config_option
@click.option("--c1", type=int, default=0)
@click.option("--c2", type=int, default=0)
@click.option("--j", "j_coupling", type=float, default=1.0, help="Coupling of the constant-field model.")
@click.option("--scan/--no-scan", default=False, help="Also write a (B, t) population grid.")
@click.option("--b-points", type=int, default=81)
@click.option("--t-points", type=int, default=121)
@click.option("--out-prefix", default="analytic", help="Output file prefix.")
def cmd_analytic(config_path, c1, c2, j_coupling, scan, b_points, t_points, out_prefix) -> None:
    """Constant-field closed-form benchmark and optional parameter scan."""
    cfg = _merged_config(config_path)
    try:
        solution = constant_field_params(c1, c2, j_coupling)
    except ValueError as exc:
        _fail(str(exc))
    pop_closed = constant_field_population(j_coupling, solution.b, solution.t_star)
    pop_prop = propagated_population(j_coupling, solution.b, solution.t_star)
    click.echo(
        f"C1={c1} C2={c2}: B={solution.b:.6f}, t*={solution.t_star:.6f}, "
        f"population closed-form {pop_closed:.9f}, propagated {pop_prop:.9f}"
    )
    if scan:
        b_grid = np.linspace(-10.0 * j_coupling, 10.0 * j_coupling, b_points)
        t_grid = np.linspace(0.01, 3.5 / j_coupling, t_points)
        pops, maxima = scan_constant_field(j_coupling, b_grid, t_grid)
        outdir = _outdir(cfg)
        grid_path = outdir / f"{out_prefix}_grid.csv"
        write_scan_csv(grid_path, b_grid, t_grid, pops)
        peaks_path = outdir / f"{out_prefix}_maxima.json"
        _write_json(
            peaks_path,
            {
                "maxima": [{"b": b, "t": t, "population": p} for b, t, p in maxima[:20]],
                **_stamp(cfg),
            },
        )
        click.echo(f"grid: {grid_path}")
        click.echo(f"maxima: {peaks_path}")


@main.command("protocol")
@config_option
@click.option("--t", "t_total", type=float, default=None, help="Core evolution time.")
@click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out-prefix", default="protocol", help="Output file prefix.")
def cmd_protocol(config_path, schedule_path, out_prefix, **overrides) -> None:
    """Full staged run: prepare, evolve, decouple, map to clock states."""
    cfg = _merged_config(config_path, mode="rydberg", n_sites=3, **overrides)
    if cfg.t_total is None:
        cfg = apply_overrides(cfg, t_total=TABLE_RYDBERG[0][1])
    schedule, _ = _resolve_schedule(cfg, schedule_path)
    model = build_model(cfg)
    plan = standard_plan(model.geometry, schedule)
    result = run_full_protocol(plan)
    outdir = _outdir(cfg)
    timeline_path = outdir / f"{out_prefix}_timeline.csv"
    write_timeline_csv(timeline_path, result.timeline)
    summary = {
        "total_duration": result.total_duration,
        "stages": [
            {
                "label": r.label,
                "end_time": r.end_time,
                "reference_population": r.reference_population,
            }
            for r in result.stage_reports
        ],
        **_stamp(cfg),
    }
    summary_path = outdir / f"{out_prefix}_summary.json"
    _write_json(summary_path, summary)
    click.echo(f"total duration {result.total_duration:.6f} us")
    for r in result.stage_reports:
        if r.reference_population is not None:
            click.echo(
                f"  after {r.label:<13s} reference population {r.reference_population:.6f}"
            )
    click.echo(f"timeline: {timeline_path}")
    click.echo(f"summary: {summary_path}")


if __name__ == "__main__":
    main()
