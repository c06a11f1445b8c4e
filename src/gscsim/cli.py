"""Command line front end.

Subcommands: ``simulate`` (scripted shock scenarios, optionally the full
realisation-by-environment matrix), ``equilibrium`` (solve wages for a
parameter file), and ``fir`` / ``fmr`` (reliance matrices from a world IO
table, optionally differenced against a second table).

Every invocation writes its artifacts plus a ``manifest.json`` recording
the hash of the config's JSON form, seed, tool version and the SHA-256 of
each output file, so a run can be traced back to exactly what produced
it.  Exit codes: 0 success, 2 bad configuration or usage, 3 I/O failure,
4 equilibrium non-convergence.  The ``GSC_LOG`` environment variable sets
the log level.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .charts import timeseries_chart
from .chains import EconomyParams, _json_object
from .equilibrium import EquilibriumConvergenceError, SolverConfig, solve_equilibrium
from .iotables import compute_fir, compute_fmr, load_table, reliance_change
from .scenarios import INFO_ENVS, REALIZATIONS, ScenarioConfig, run_matrix, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4


def _configure_logging():
    level_name = os.environ.get("GSC_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: Path) -> dict:
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON at line {err.lineno}, "
                         f"column {err.colno}: {err.msg}") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config_obj, seed,
                    outputs: list[Path]) -> Path:
    canonical = json.dumps(config_obj, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [
            {"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in outputs
        ],
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def write_timeseries_csv(ts, path: Path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ts.COLUMNS)
        for period, east, south, total, alive, welfare in ts.rows():
            writer.writerow([period, east, south, total,
                             "true" if alive else "false", repr(welfare)])


def write_equilibrium_csv(solution, path: Path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "wage", "price_index", "composite_cost"])
        for i in range(len(solution.wages)):
            writer.writerow([i, repr(float(solution.wages[i])),
                             repr(float(solution.prices[i])),
                             repr(float(solution.costs[i]))])


def _cell_name(mode: str, realization: str, env: str) -> str:
    return f"{mode}_{realization}_{env}"


def _cmd_simulate(args) -> int:
    config_path = Path(args.config)
    raw = _load_json(config_path)
    if args.seed is not None:
        raw = {**_json_object(raw, ScenarioConfig.kind), "seed": args.seed}
    config = ScenarioConfig.from_dict(raw)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # (status label, chart title, csv name, svg name, time series) per run
    if args.matrix:
        cells = run_matrix(config)
        runs = [(name, name, f"{name}.csv", f"{name}.svg", cells[(r, e)])
                for e in INFO_ENVS for r in REALIZATIONS
                for name in (_cell_name(config.decision_mode, r, e),)]
    else:
        runs = [(f"{config.decision_mode}/{config.realization}/{config.info_env}",
                 _cell_name(config.decision_mode, config.realization, config.info_env),
                 "timeseries.csv", "chart.svg", run_scenario(config))]
    outputs = []
    for label, title, csv_name, svg_name, ts in runs:
        csv_path = out_dir / csv_name
        write_timeseries_csv(ts, csv_path)
        outputs.append(csv_path)
        if args.plot:
            svg_path = out_dir / svg_name
            svg_path.write_text(timeseries_chart(ts, title))
            outputs.append(svg_path)
        status = "alive" if ts.chain_alive.all() else "disrupted"
        print(f"{label}: {status}, min suppliers {int(ts.suppliers_total.min())}")

    manifest = _write_manifest(out_dir, "simulate", config.to_dict(),
                               config.seed, outputs)
    print(f"wrote {len(outputs)} file(s) and {manifest}")
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    params = EconomyParams.from_dict(_load_json(Path(args.params)))
    solver = SolverConfig()
    if args.tolerance is not None:
        solver = SolverConfig(tolerance=args.tolerance)
    solution = solve_equilibrium(params, solver)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "equilibrium.csv"
    write_equilibrium_csv(solution, csv_path)
    _write_manifest(out_dir, "equilibrium",
                    {"params": params.to_dict(),
                     "tolerance": solver.tolerance},
                    None, [csv_path])
    print(f"converged in {solution.iterations} iterations, "
          f"residual norm {solution.residual_norm:.3e}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_reliance(args, metric: str) -> int:
    table = load_table(args.table)
    focus = args.focus.split(",") if args.focus else None
    compute = compute_fir if metric == "fir" else compute_fmr
    matrix = compute(table, args.sector, focus=focus, measure=args.measure)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    main_path = out_dir / f"{metric}.csv"
    matrix.to_csv(main_path)
    outputs.append(main_path)
    if args.diff:
        other = compute(load_table(args.diff), args.sector, focus=focus,
                        measure=args.measure)
        change = reliance_change(other, matrix)
        diff_path = out_dir / f"{metric}_change.csv"
        change.to_csv(diff_path)
        outputs.append(diff_path)
    _write_manifest(out_dir, metric,
                    {"table": str(args.table), "diff": args.diff,
                     "sector": args.sector, "focus": focus,
                     "measure": args.measure},
                    None, outputs)
    for p in outputs:
        print(f"wrote {p}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gscsim",
        description="Supply chain scenarios, wage equilibria and reliance metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scripted shock scenario")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--matrix", action="store_true",
                     help="run all realisation/environment cells")
    sim.add_argument("--plot", action="store_true",
                     help="emit an SVG chart per run")

    eq = sub.add_parser("equilibrium", help="solve the wage equilibrium")
    eq.add_argument("--params", required=True, help="economy JSON file")
    eq.add_argument("--out", default=".", help="output directory")
    eq.add_argument("--tolerance", type=float, default=None)

    for metric in ("fir", "fmr"):
        rel = sub.add_parser(metric, help=f"compute the {metric.upper()} matrix")
        rel.add_argument("--table", required=True, help="world IO table CSV")
        rel.add_argument("--sector", required=True, help="target sector label")
        rel.add_argument("--focus", default=None,
                         help="comma separated focus countries (rest becomes ROW)")
        rel.add_argument("--measure", choices=("va", "gross"), default="va")
        rel.add_argument("--diff", default=None,
                         help="second table; also emit the change matrix")
        rel.add_argument("--out", default=".", help="output directory")

    return parser


# argparse keeps no state between parse_args calls, so in-process callers
# of main share one parser instead of building the tree each time.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "equilibrium":
            return _cmd_equilibrium(args)
        if args.command in ("fir", "fmr"):
            return _cmd_reliance(args, args.command)
        raise AssertionError(f"unhandled command {args.command}")
    except EquilibriumConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, TypeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
