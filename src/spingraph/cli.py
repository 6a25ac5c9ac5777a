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
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analytic import (
    constant_field_params,
    constant_field_population,
    propagated_population,
    scan_constant_field,
)
from .chain import RydbergModel
from .config import (
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
from .dynamics import closed_system_trace, ensemble_average, open_system_trace
from .grape import (
    GrapeConfig,
    check_return_budget,
    check_scan_grid,
    optimize as run_optimize,
    scan_duration,
    schedule_from_record,
    schedule_to_record,
    save_result,
    load_result,
)
from .operators import check_trace_stack
from .protocol import check_stage_budget, run_full_protocol, standard_plan, write_timeline_csv
from .targets import TargetForm, complete_graph_state, plus_product_state, target_state

TABLE_IDEAL = ((3, 2.3), (4, 2.808), (5, 3.386), (6, 3.952))
TABLE_RYDBERG = ((3, 0.141), (4, 0.172), (5, 0.203), (6, 0.233))

#: Symmetric distance offsets averaged for the vibration row of the error budget.
VIBRATION_OFFSETS_NM = (100.0, -100.0)


def _echo(message: str) -> None:
    # click.echo without a file caches sys.stdout in a weak-keyed map whose
    # value is the stream itself, so every stdout an in-process caller swaps
    # in (a test runner, the benchmark) would stay alive with all its text
    click.echo(message, file=sys.stdout)


def _merged_config(config_path, **overrides) -> ExperimentConfig:
    cfg = load_config(config_path) if config_path else ExperimentConfig()
    return apply_overrides(cfg, **overrides)


def _grape_config(cfg: ExperimentConfig) -> GrapeConfig:
    if cfg.t_total is None:
        raise ValueError("no evolution time given (set run.t_total or pass --t)")
    return GrapeConfig(
        model=build_model(cfg),
        t_total=cfg.t_total,
        guess=build_guess_spec(cfg),
        target=build_target_spec(cfg),
    )


def _output_path(cfg: ExperimentConfig, name: str, out=None) -> Path:
    """``out`` if given, else ``name`` in the config's output directory;
    every missing directory on the way is created. Commands resolve their
    paths before the work, so that a destination that cannot be made
    fails at once."""
    path = Path(out) if out else Path(cfg.output_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_outputs(cfg, prefix, csv_name, json_name) -> dict[str, Path]:
    """The paths ``<prefix>_<csv_name>.csv`` and ``<prefix>_<json_name>.json``
    of ``_write_float_outputs``, by name."""
    return {
        csv_name: _output_path(cfg, f"{prefix}_{csv_name}.csv"),
        json_name: _output_path(cfg, f"{prefix}_{json_name}.json"),
    }


def _write_float_outputs(paths, header, rows, record, stamp) -> None:
    """The ``_float_outputs`` CSV with every value written as repr(float),
    then its JSON holding ``record`` and ``stamp``; one echo line per path."""
    (csv_name, csv_path), (json_name, json_path) = paths.items()
    _write_csv(csv_path, header, ([repr(float(x)) for x in row] for row in rows))
    save_result(json_path, {**record, **stamp})
    _echo(f"{csv_name}: {csv_path}")
    _echo(f"{json_name}: {json_path}")


def _stamp(cfg: ExperimentConfig, schedule=None) -> dict:
    return {
        "config_hash": config_hash(cfg, schedule),
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
    record["target"] = cfg.target_form
    return record


def _resolve_schedule(cfg: ExperimentConfig, schedule_path, check_budget, outputs):
    """The run's schedule, its outputs' stamp and the paths ``outputs()``
    makes, in one order: the slice count (the persisted schedule's, else
    the guess's), ``check_budget(slices)``, ``outputs()``, and only then,
    without a schedule file, the optimization. A persisted
    schedule must be for this run's atom count, duration (when the run sets
    one), mode and target form; a record without a target form was made for
    the operator-product one. It joins the config hash, as an input the
    config does not hold."""
    if schedule_path:
        record = load_result(schedule_path)
        schedule = schedule_from_record(record)  # refuses a malformed record first
        record = {"target": "operator-product", **record}
        run = {"N": cfg.n_sites, "T": cfg.t_total, "mode": cfg.mode, "target": cfg.target_form}
        for key, value in run.items():
            if value is not None and record.get(key) != value:
                raise ValueError(f"schedule is for {key}={record.get(key)}, run is for {key}={value}")
        check_budget(schedule.n_slices)
        return schedule, _stamp(cfg, schedule), outputs()
    check_budget(build_guess_spec(cfg).slice_count())
    grape_cfg, paths = _grape_config(cfg), outputs()
    return run_optimize(grape_cfg).schedule, _stamp(cfg), paths


def _operator_product_only(cfg: ExperimentConfig) -> None:
    """Refuse a cz-circuit run where the staged protocol scores it: its
    references are built from the operator-product graph state."""
    if build_target_spec(cfg) is TargetForm.CZ_CIRCUIT:
        raise ValueError("the staged protocol scores the operator-product graph state; "
                         "it cannot run target_form cz-circuit")


def _with_table_guess(cfg: ExperimentConfig) -> ExperimentConfig:
    """The guess of tables 2 and 3 (see ``table``): random, unless a kind is set."""
    return cfg if cfg.guess_kind is not None else apply_overrides(cfg, guess_kind="random")


#: Options several commands take, declared once. A destination that names an
#: ExperimentConfig field overrides that field.
SHARED_OPTIONS = {
    "config": click.option(
        "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
        default=None, help="YAML config file; flags override its values.",
    ),
    "mode": click.option("--mode", type=click.Choice(["ideal", "rydberg"]), default=None),
    "n": click.option("--n", "n_sites", type=int, default=None, help="Atom count."),
    "t": click.option("--t", "t_total", type=float, default=None, help="Evolution time."),
    "guess": click.option("--guess", "guess_kind", type=click.Choice(["gaussian", "random"]), default=None),
    "seed": click.option("--seed", type=int, default=None, help="Random-guess seed."),
    "schedule": click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False), default=None),
}


def shared_options(*names: str):
    """Add ``--config`` and the shared options ``names`` to a command."""
    def decorate(command):
        for name in reversed(("config", *names)):
            command = SHARED_OPTIONS[name](command)
        return command
    return decorate


def out_prefix_option(default: str):
    return click.option("--out-prefix", default=default, help="Output file prefix.")


class _Commands(click.Group):
    """The one printer of refusals: a ``ValueError`` (``ConfigError`` and
    ``GrapeError`` are ones) or ``OSError`` (an unwritable output) from any
    command becomes one line, ``<command> failed: ...``, and exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(f"{ctx.invoked_subcommand} failed: {exc}")


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="spingraph")
def main() -> None:
    """Global-field pulse engineering for complete-graph-state preparation."""


@main.command("optimize")
@shared_options("mode", "n", "t", "guess", "seed")
@click.option("--b0", "guess_b0", type=float, default=None, help="Guess amplitude scale.")
@click.option("--slices", "guess_slices", type=int, default=None, help="Slice count.")
@click.option("--target", "target_form", type=click.Choice(["operator-product", "cz-circuit"]), default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Schedule JSON path.")
def cmd_optimize(config_path, out, **overrides) -> None:
    """Optimize a field schedule and persist it as JSON plus a convergence CSV."""
    cfg = _merged_config(config_path, **overrides)
    grape_cfg = _grape_config(cfg)
    json_path = _output_path(cfg, f"schedule_{cfg.mode}_n{cfg.n_sites}.json", out)
    csv_path = json_path.with_suffix(".convergence.csv")
    result = run_optimize(grape_cfg)
    save_result(json_path, _schedule_record(cfg, result))
    _write_csv(
        csv_path,
        ["iteration", "phi"],
        [[i, repr(p)] for i, p in enumerate(result.phi_history)],
    )
    _echo(
        f"final population {result.final_population:.6f} after "
        f"{result.iterations} iterations (converged={result.converged})"
    )
    _echo(f"schedule: {json_path}")
    _echo(f"convergence: {csv_path}")


def _table_rows_closed(cfg: ExperimentConfig, mode: str):
    cases = TABLE_IDEAL if mode == "ideal" else TABLE_RYDBERG
    rows = []
    for n, t in cases:
        case_cfg = apply_overrides(cfg, mode=mode, n_sites=n, t_total=t)
        rows.append((n, t, run_optimize(_grape_config(case_cfg)).final_population))
    return rows


def _dissipation_delta(jumps, model, result) -> float:
    psi0, target = plus_product_state(model.n_sites), complete_graph_state(model.n_sites)
    _, opened = open_system_trace(model, result.schedule, jumps, psi0, target)
    return result.final_population - float(opened[-1])


@main.command("table")
@click.argument("which", type=click.Choice(["1", "2", "3"]))
@shared_options("guess", "seed")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV path.")
def cmd_table(which, config_path, out, **overrides) -> None:
    """Reproduce a results table (1 ideal, 2 dipolar chain, 3 error budget).

    Tables 2 and 3 default to the documented random guess (seed 1 unless
    --seed says otherwise) unless --guess or the config file's
    guess.guess_kind picks a kind; the Gaussian guess stalls in a flat
    region for the N=4 chain case.
    """
    cfg = _merged_config(config_path, **overrides)
    if which in ("2", "3"):
        cfg = _with_table_guess(cfg)
    guess = build_guess_spec(cfg)  # refused before the CSV directory is made
    if which == "3":
        _operator_product_only(cfg)
        jumps = build_jump_channels(cfg)
        # the largest row's traces (N + 1 sectors) and protocol stages
        n, slices = max(dict(TABLE_RYDBERG)), guess.slice_count()
        check_return_budget(slices + 1, n + 1)
        check_stage_budget(slices, n)
    csv_path = _output_path(cfg, f"table{which}.csv", out)

    if which in ("1", "2"):
        mode, label, column = ("ideal", "J*T", "J*T") if which == "1" else ("rydberg", "T(us)", "T_us")
        rows = _table_rows_closed(cfg, mode)
        header = ["n", column, "population"]
        _echo(f"{'N':>3} {label:>8} {'population':>12}")
        for n, t, p in rows:
            _echo(f"{n:>3} {t:>8.3f} {p:>12.4f}")
    else:
        rows = _error_budget_rows(cfg, jumps)
        header = [
            "n", "T_us", "closed", "dissipation_delta", "vibration_delta",
            "prep_delta", "budgeted",
        ]
        _echo(
            f"{'N':>3} {'T(us)':>7} {'closed':>8} {'diss':>8} {'vibr':>8} "
            f"{'prep':>8} {'budget':>8}"
        )
        for row in rows:
            _echo(
                f"{row[0]:>3} {row[1]:>7.3f} {row[2]:>8.4f} {row[3]:>8.4f} "
                f"{row[4]:>8.4f} {row[5]:>8.4f} {row[6]:>8.4f}"
            )

    stamp = _stamp(cfg)
    _write_csv(
        csv_path,
        header + ["config_hash", "constants_version"],
        [
            list(map(repr, row)) + [stamp["config_hash"], stamp["constants_version"]]
            for row in rows
        ],
    )
    _echo(f"csv: {csv_path}")


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


def _error_budget_rows(cfg: ExperimentConfig, jumps):
    """One optimization per (N, T) case, shared by every column of its row;
    the preparation loss comes from the staged protocol run on that row's
    atoms and schedule, the dissipation from the decay channels ``jumps``."""
    rows = []
    for n, t in TABLE_RYDBERG:
        case_cfg = apply_overrides(cfg, mode="rydberg", n_sites=n, t_total=t)
        model, result = build_model(case_cfg), run_optimize(_grape_config(case_cfg))
        closed = result.final_population
        diss = _dissipation_delta(jumps, model, result)
        vibr = _vibration_delta(model, result)
        prep = _protocol_prep_delta(model, result)
        rows.append(
            (case_cfg.n_sites, case_cfg.t_total, closed, diss, vibr, prep,
             closed - diss - vibr - prep)
        )
    return rows


@main.command("noise")
@shared_options("mode", "n", "t", "guess", "seed", "schedule")
@click.option("--position-sigma", default=None, help="Comma triple in nm, e.g. 193.5,193.5,1242.9.")
@click.option("--field-sigma", type=float, default=None, help="Per-slice sigma, rad/us.")
@click.option("--samples", type=int, default=None)
@click.option("--base-seed", type=int, default=None)
@out_prefix_option("noise")
def cmd_noise(config_path, position_sigma, schedule_path, out_prefix, **overrides) -> None:
    """Monte Carlo ensemble under geometric and/or field noise."""
    if position_sigma is not None:
        try:
            sigma = tuple(float(p) for p in position_sigma.split(","))
        except ValueError:
            sigma = ()
        if len(sigma) != 3:
            raise ValueError(
                f"--position-sigma needs three comma-separated values in nm, not {position_sigma!r}"
            )
        overrides["position_sigma"] = sigma
    cfg = _merged_config(config_path, **overrides)
    if cfg.mode != "rydberg" and any(s > 0 for s in cfg.position_sigma):
        raise ValueError("geometry noise requires rydberg mode")
    spec = build_noise_spec(cfg)
    schedule, stamp, paths = _resolve_schedule(
        cfg, schedule_path, lambda slices: spec.check_trace_budget(slices + 1),
        lambda: _float_outputs(cfg, out_prefix, "trace", "summary"),
    )
    result = ensemble_average(
        build_model(cfg),
        schedule,
        spec,
        plus_product_state(cfg.n_sites),
        target_state(build_target_spec(cfg), cfg.n_sites),
    )
    _echo(f"mean final population {result.mean_final:.6f} (std {result.std_final:.6f})")
    summary = {
        "mean_final": result.mean_final,
        "std_final": result.std_final,
        "sample_finals": [float(x) for x in result.sample_finals],
        "samples": spec.samples,
        "base_seed": spec.base_seed,
    }
    _write_float_outputs(
        paths, ["time", "mean", "min", "max"],
        zip(result.times, result.mean_trace, result.min_trace, result.max_trace),
        summary, stamp,
    )


@main.command("scan-t")
@shared_options("mode", "n", "guess", "seed")
@click.option("--t-min", type=float, default=None)
@click.option("--t-max", type=float, default=None)
@click.option("--steps", "scan_steps", type=int, default=None)
@out_prefix_option("scan")
def cmd_scan_t(config_path, out_prefix, **overrides) -> None:
    """Optimize across a duration grid and report the population peaks."""
    cfg = _merged_config(config_path, **overrides)
    # bounds refused by name, before t_max stands in for each point's duration
    check_scan_grid(cfg.t_min, cfg.t_max, cfg.scan_steps)
    grape_cfg = _grape_config(apply_overrides(cfg, t_total=cfg.t_max))
    paths = _float_outputs(cfg, out_prefix, "curve", "peaks")
    scan = scan_duration(grape_cfg, cfg.t_min, cfg.t_max, cfg.scan_steps)
    _echo("peaks (ranked by population):")
    for t, p in scan.maxima:
        _echo(f"  T={t:.4f}  population={p:.4f}")
    peaks = {"peaks": [{"t": t, "population": p} for t, p in scan.maxima]}
    _write_float_outputs(paths, ["t", "population"], scan.points, peaks, _stamp(cfg))


@main.command("master")
@shared_options("n", "t", "guess", "seed", "schedule")
@click.option("--gamma-up", type=float, default=None, help="Decay rate of up, 1/us.")
@click.option("--gamma-down", type=float, default=None, help="Decay rate of down, 1/us.")
@out_prefix_option("master")
def cmd_master(config_path, schedule_path, out_prefix, **overrides) -> None:
    """Open-system run with spontaneous emission; reports the closed-system delta."""
    cfg = _merged_config(config_path, mode="rydberg", **overrides)
    jumps = build_jump_channels(cfg)
    # |+>^N reaches N + 1 sectors
    schedule, stamp, paths = _resolve_schedule(
        cfg, schedule_path, lambda slices: check_return_budget(slices + 1, cfg.n_sites + 1),
        lambda: _float_outputs(cfg, out_prefix, "trace", "summary"),
    )
    closed_trace, open_trace = open_system_trace(
        build_model(cfg), schedule, jumps, plus_product_state(cfg.n_sites),
        target_state(build_target_spec(cfg), cfg.n_sites),
    )
    closed, opened = closed_trace[-1], open_trace[-1]
    _echo(f"closed {closed:.6f}  open {opened:.6f}  delta {closed - opened:.6f}")
    summary = {
        "closed_population": float(closed),
        "open_population": float(opened),
        "dissipation_delta": float(closed - opened),
    }
    _write_float_outputs(
        paths, ["time", "population"], zip(schedule.boundary_times, open_trace), summary, stamp
    )


@main.command("analytic")
@shared_options()
@click.option("--c1", type=int, default=0)
@click.option("--c2", type=int, default=0)
@click.option("--j", "j_coupling", type=float, default=1.0, help="Coupling of the constant-field model.")
@click.option("--scan/--no-scan", default=False, help="Also write a (B, t) population grid.")
@click.option("--b-points", type=int, default=81)
@click.option("--t-points", type=int, default=121)
@out_prefix_option("analytic")
def cmd_analytic(config_path, c1, c2, j_coupling, scan, b_points, t_points, out_prefix) -> None:
    """Constant-field closed-form benchmark and optional parameter scan."""
    cfg = _merged_config(config_path)
    if scan:
        for option, points in (("--b-points", b_points), ("--t-points", t_points)):
            if points < 1:
                raise ValueError(f"{option} must be positive, not {points}")
        check_trace_stack({"B points": b_points, "t points": t_points}, "scan")
        # the closed form's (B, t, 8) amplitude stack, before its temporaries
        counts = {"B points": b_points, "t points": t_points, "configurations": 8}
        check_trace_stack(counts, "closed-form", "amplitudes")
    solution = constant_field_params(c1, c2, j_coupling)
    paths = _float_outputs(cfg, out_prefix, "grid", "maxima") if scan else None
    pop_closed = constant_field_population(j_coupling, solution.b, solution.t_star)
    pop_prop = propagated_population(j_coupling, solution.b, solution.t_star)
    _echo(
        f"C1={c1} C2={c2}: B={solution.b:.6f}, t*={solution.t_star:.6f}, "
        f"population closed-form {pop_closed:.9f}, propagated {pop_prop:.9f}"
    )
    if scan:
        b_grid = np.linspace(-10.0 * j_coupling, 10.0 * j_coupling, b_points)
        t_grid = np.linspace(0.01, 3.5 / j_coupling, t_points)
        pops, maxima = scan_constant_field(j_coupling, b_grid, t_grid)
        b_col, t_col = np.meshgrid(b_grid, t_grid, indexing="ij")
        top = {"maxima": [{"b": b, "t": t, "population": p} for b, t, p in maxima[:20]]}
        _write_float_outputs(
            paths, ["b", "t", "population"],
            zip(b_col.ravel(), t_col.ravel(), pops.ravel()), top, _stamp(cfg),
        )


@main.command("protocol")
@shared_options("n", "t", "guess", "seed", "schedule")
@out_prefix_option("protocol")
def cmd_protocol(config_path, schedule_path, out_prefix, **overrides) -> None:
    """Full staged run: prepare, evolve, decouple, map to clock states.

    Without a schedule or a time, the core is optimized as in table 2: at
    its duration for the atom count, and from its guess.
    """
    cfg = _merged_config(config_path, mode="rydberg", **overrides)
    _operator_product_only(cfg)
    if schedule_path is None and cfg.t_total is None and cfg.n_sites in dict(TABLE_RYDBERG):
        cfg = _with_table_guess(apply_overrides(cfg, t_total=dict(TABLE_RYDBERG)[cfg.n_sites]))
    schedule, stamp, (timeline_path, summary_path) = _resolve_schedule(
        cfg, schedule_path, lambda slices: check_stage_budget(slices, cfg.n_sites),
        lambda: (_output_path(cfg, f"{out_prefix}_timeline.csv"),
                 _output_path(cfg, f"{out_prefix}_summary.json")),
    )
    result = run_full_protocol(standard_plan(build_model(cfg).geometry, schedule))
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
        **stamp,
    }
    save_result(summary_path, summary)
    _echo(f"total duration {result.total_duration:.6f} us")
    for r in result.stage_reports:
        if r.reference_population is not None:
            _echo(
                f"  after {r.label:<13s} reference population {r.reference_population:.6f}"
            )
    _echo(f"timeline: {timeline_path}")
    _echo(f"summary: {summary_path}")


if __name__ == "__main__":
    main()
