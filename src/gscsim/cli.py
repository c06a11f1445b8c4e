"""Command line front end.

Subcommands: ``simulate`` (scripted shock scenarios, optionally the full
realisation-by-environment matrix), ``equilibrium`` (solve wages for a
parameter file), and ``fir`` / ``fmr`` (reliance matrices from a world IO
table, optionally differenced against a second table).

Every invocation computes all of its results and renders each artifact to
text first, then writes the artifacts plus a ``manifest.json`` recording the
hash of the config's JSON form, seed, tool version and the SHA-256 and size
of the bytes written for each file, so a run can be traced back to exactly
what produced it, and a run that fails writes no file and creates no
directory.  Exit codes: 0 success, 2 bad configuration or usage, 3 I/O
failure, 4 equilibrium non-convergence.  ``GSC_LOG`` sets the level of the
``gscsim`` loggers on every run, leaving the root level alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
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
    level = getattr(logging, os.environ.get("GSC_LOG", "WARNING").upper(), None)
    logging.getLogger("gscsim").setLevel(level if isinstance(level, int) else logging.WARNING)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: Path) -> dict:
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON at line {err.lineno}, "
                         f"column {err.colno}: {err.msg}") from None


def _publish(out: Path, command: str, config_obj, seed,
             files) -> tuple[list[Path], Path]:
    """Create ``out``, write the text of each ``(name, text)`` of ``files``
    there, then ``manifest.json``, whose entries hash the very bytes written;
    returns the output paths and the manifest path.  Each command calls this
    once, after every output is rendered."""
    out.mkdir(parents=True, exist_ok=True)
    outputs, entries = [], []
    for name, text in files:
        data = text.encode()
        path = out / name
        path.write_bytes(data)
        outputs.append(path)
        entries.append({"path": name, "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data)})
    canonical = json.dumps(config_obj, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": entries,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return outputs, path


def _csv_text(rows) -> str:
    """``rows`` as CSV text, every line ended in ``\\r\\n`` as ``csv`` writes it."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def timeseries_csv(ts) -> str:
    return _csv_text([ts.COLUMNS, *(
        [period, east, south, total, "true" if alive else "false", repr(welfare)]
        for period, east, south, total, alive, welfare in ts.rows())])


def equilibrium_csv(solution) -> str:
    return _csv_text([["location", "wage", "price_index", "composite_cost"],
                      *([i, repr(float(wage)), repr(float(price)), repr(float(cost))]
                        for i, (wage, price, cost) in enumerate(
                            zip(solution.wages, solution.prices, solution.costs)))])


def _cell_name(mode: str, realization: str, env: str) -> str:
    return f"{mode}_{realization}_{env}"


def _cmd_simulate(args) -> int:
    raw = _load_json(Path(args.config))
    if args.seed is not None:
        raw = {**_json_object(raw, ScenarioConfig.kind), "seed": args.seed}
    config = ScenarioConfig.from_dict(raw)

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
    files = []
    for _, title, csv_name, svg_name, ts in runs:
        files.append((csv_name, timeseries_csv(ts)))
        if args.plot:
            files.append((svg_name, timeseries_chart(ts, title)))
    outputs, manifest = _publish(Path(args.out), "simulate", config.to_dict(),
                                 config.seed, files)
    for label, _, _, _, ts in runs:
        status = "alive" if ts.chain_alive.all() else "disrupted"
        print(f"{label}: {status}, min suppliers {int(ts.suppliers_total.min())}")
    print(f"wrote {len(outputs)} file(s) and {manifest}")
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    params = EconomyParams.from_dict(_load_json(Path(args.params)))
    solver = SolverConfig() if args.tolerance is None else SolverConfig(tolerance=args.tolerance)
    solution = solve_equilibrium(params, solver)
    (csv_path,), _ = _publish(
        Path(args.out), "equilibrium",
        {"params": params.to_dict(), "tolerance": solver.tolerance}, None,
        [("equilibrium.csv", equilibrium_csv(solution))])
    print(f"converged in {solution.iterations} iterations, "
          f"residual norm {solution.residual_norm:.3e}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_reliance(args, metric: str) -> int:
    focus = args.focus.split(",") if args.focus else None
    compute = compute_fir if metric == "fir" else compute_fmr
    matrix = compute(load_table(args.table), args.sector, focus=focus, measure=args.measure)
    matrices = [(f"{metric}.csv", matrix)]
    if args.diff:
        other = compute(load_table(args.diff), args.sector, focus=focus, measure=args.measure)
        matrices.append((f"{metric}_change.csv", reliance_change(other, matrix)))
    outputs, _ = _publish(Path(args.out), metric,
                          {"table": str(args.table), "diff": args.diff,
                           "sector": args.sector, "focus": focus,
                           "measure": args.measure},
                          None, [(name, _csv_text(m.csv_rows())) for name, m in matrices])
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
    sim.set_defaults(run=_cmd_simulate)

    eq = sub.add_parser("equilibrium", help="solve the wage equilibrium")
    eq.add_argument("--params", required=True, help="economy JSON file")
    eq.add_argument("--out", default=".", help="output directory")
    eq.add_argument("--tolerance", type=float, default=None)
    eq.set_defaults(run=_cmd_equilibrium)

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
        rel.set_defaults(run=functools.partial(_cmd_reliance, metric=metric))

    return parser


# argparse keeps no state between parse_args calls, so in-process callers
# of main share one parser instead of building the tree each time.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
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
