"""The benchmark's workloads: timed operations, library probes and checks.

An operation is one call a user makes: a ``gscsim`` CLI command run
in-process through ``gscsim.cli.main``, or a library call.  Each operation
also has probes, the benchmark's own calls into the public functions of the
modules the operation exercises.  Probes run once untimed to get reference
results for the checks, and inside spans on traced passes, where they give
the per-layer times.  ``equivalents`` names the probe spans that redo the
library work of a CLI command; the command's time minus theirs is CLI
overhead (JSON, CSV and SVG I/O and manifest hashing).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from gscsim import (
    EquilibriumConvergenceError,
    ScenarioConfig,
    ShockParams,
    SolverConfig,
    compute_fir,
    compute_fmr,
    labor_market_residuals,
    leontief_inverse,
    load_table,
    monte_carlo_survival,
    path_share_matrix,
    planner_ambiguity_sourcing,
    planner_risk_sourcing,
    price_indices,
    reliance_change,
    run_matrix,
    simulate_regime,
    solve_equilibrium,
    supplier_counts,
    tier_participation,
)
from gscsim.charts import timeseries_chart
from gscsim.cli import EXIT_NO_CONVERGENCE, main as cli_main
from gscsim.iotables import BALANCE_RTOL

import inputs

# Per-layer metrics: time spent in spans of the named probe or operation.
LAYER_TIMES = {
    "chains.price_indices_s": "chains.price_indices",
    "chains.tier_participation_s": "chains.tier_participation",
    "equilibrium.residual_s": "equilibrium.labor_market_residuals",
    "equilibrium.solve_s": "equilibrium.solve_equilibrium",
    "sourcing.risk_sweep_s": "sourcing.planner_risk_sourcing",
    "sourcing.ambiguity_sweep_s": "sourcing.planner_ambiguity_sourcing",
    "scenarios.run_matrix_s": "scenarios.run_matrix",
    "scenarios.monte_carlo_s": "scenarios.monte_carlo_survival",
    "shocks.simulate_regime_s": "shocks.simulate_regime",
    "charts.svg_s": "charts.timeseries_chart",
    "iotables.load_s": "iotables.load_table",
    "iotables.leontief_s": "iotables.leontief_inverse",
    "iotables.fir_s": "iotables.compute_fir",
    "iotables.fmr_s": "iotables.compute_fmr",
}
# Exact counts per traced pass.  Paths, grid points, runs, draws and bytes
# are the nominal work the benchmark hands each layer: the base of a rate.
LAYER_COUNTS = {
    "chains.paths": "count",
    "equilibrium.iterations": "count",
    "equilibrium.failures": "count",
    "sourcing.candidates_scored": "count",
    "sourcing.distinct_candidates": "count",
    "scenarios.mc_runs": "count",
    "shocks.draws": "count",
    "iotables.bytes_parsed": "bytes",
}

# Walras's law holds at every wage vector up to rounding.
WALRAS_TOL = 1e-9
# Chains small enough for the pure-Python path enumeration oracle.
ORACLE_MAX_PATHS = 125
# Monte Carlo frequencies must lie within this many standard errors, plus
# the rounding of summing many equal terms.
MC_SIGMAS = 5.0
MC_ROUNDING = 1e-9
# Reliance CSVs print one decimal.
CSV_ROUNDING = 0.05 + 1e-9


class CheckFailed(Exception):
    """An operation's output is wrong."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def chain_oracle(params, costs):
    """Price indices, path shares and tier participation by enumeration.

    Written from the chain cost formula, independent of gscsim.chains.
    """
    J, N = params.n_locations, params.n_tiers
    th, a, b = params.theta, params.alpha, params.beta
    paths = list(itertools.product(range(J), repeat=N))
    scale = np.empty((len(paths), J))
    for p, path in enumerate(paths):
        for j in range(J):
            s = 1.0
            for n, loc in enumerate(path):
                nxt = path[n + 1] if n + 1 < N else j
                s *= (params.T[loc, n] ** a[n]
                      * (costs[loc] ** a[n] * params.tau[loc, nxt]) ** -th) ** b[n]
            scale[p, j] = s
    total = scale.sum(axis=0)
    shares = scale / total
    part = np.zeros((N, J, J))
    for p, path in enumerate(paths):
        for n, loc in enumerate(path):
            part[n, loc] += shares[p]
    kappa = math.gamma((th + 1.0 - params.sigma) / th) ** (1.0 / (1.0 - params.sigma))
    return kappa * total ** (-1.0 / th), shares, part


def chain_probes(tracer, op, params, solution, counters):
    with tracer.span("equilibrium.labor_market_residuals", op):
        residual = labor_market_residuals(solution.wages, params)
    with tracer.span("chains.price_indices", op):
        prices = price_indices(params, solution.costs)
    with tracer.span("chains.tier_participation", op):
        part = tier_participation(params, solution.costs)
    counters["chains.paths"] += params.n_locations ** params.n_tiers
    return residual, prices, part


class Operation:
    name: str
    span: str
    equivalents: frozenset = frozenset()

    def prepare(self) -> None:
        """Untimed work before each run, such as clearing old outputs."""

    def run(self):
        raise NotImplementedError

    def signature(self, outcome):
        """What must repeat exactly on every pass; raises on a bad outcome."""
        raise NotImplementedError

    def failed(self, outcome) -> bool:
        """True for a documented failure, such as solver non-convergence."""
        return False

    def probe(self, tracer, counters, op=None) -> dict:
        return {}

    def verify(self, outcome, refs: dict) -> None:
        raise NotImplementedError


class CliOperation(Operation):
    expected_codes = (0,)

    def __init__(self, name: str, argv: list, out_dir: Path):
        self.name = name
        self.span = f"cli.{argv[0]}"
        self.out_dir = out_dir
        self.argv = [str(a) for a in argv] + ["--out", str(out_dir)]

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self) -> int:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli_main(self.argv)

    def signature(self, code):
        check(code in self.expected_codes, f"exit code {code}")
        files = {}
        if self.out_dir.is_dir():
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(self.out_dir.iterdir())}
        manifest = files.pop("manifest.json", None)
        if code == 0:
            check(manifest is not None, "no manifest.json")
            listed = json.loads((self.out_dir / "manifest.json").read_text())
            check(listed["command"] == self.argv[0], "manifest names another command")
            check({o["path"]: o["sha256"] for o in listed["outputs"]} == files,
                  "manifest hashes do not match the outputs")
        else:
            check(not files, "outputs written by a failed run")
        return code, tuple(sorted(files.items()))


class EquilibriumOp(CliOperation):
    expected_codes = (0, EXIT_NO_CONVERGENCE)
    equivalents = frozenset({"equilibrium.solve_equilibrium"})

    def __init__(self, name, params, params_path, out_dir):
        super().__init__(name, ["equilibrium", "--params", params_path], out_dir)
        self.params = params

    def failed(self, code):
        return code == EXIT_NO_CONVERGENCE

    def probe(self, tracer, counters, op=None):
        try:
            with tracer.span("equilibrium.solve_equilibrium", op):
                solution = solve_equilibrium(self.params)
        except EquilibriumConvergenceError:
            counters["equilibrium.failures"] += 1
            return {"solution": None}
        counters["equilibrium.iterations"] += solution.iterations
        residual, prices, part = chain_probes(tracer, op, self.params, solution, counters)
        return {"solution": solution, "residual": residual, "prices": prices,
                "participation": part}

    def verify(self, code, refs):
        sol = refs["solution"]
        if code == EXIT_NO_CONVERGENCE:
            check(sol is None, "CLI gave up where the library solver converges")
            return
        check(sol is not None, "CLI converged where the library solver fails")
        p = self.params
        rows = read_csv(self.out_dir / "equilibrium.csv")
        check(rows[0] == ["location", "wage", "price_index", "composite_cost"],
              "equilibrium.csv header")
        expect = [[str(i), repr(float(sol.wages[i])), repr(float(sol.prices[i])),
                   repr(float(sol.costs[i]))] for i in range(p.n_locations)]
        check(rows[1:] == expect, "equilibrium.csv does not round-trip the solution")
        check(abs(float(sol.wages @ p.L) - 1.0) <= 1e-12, "world income is not 1")
        residual = refs["residual"]
        check(float(np.max(np.abs(residual))) <= SolverConfig().tolerance,
              "labour markets do not clear to tolerance")
        check(abs(float(residual.sum())) <= WALRAS_TOL, "Walras's law fails at the solution")
        check(max(abs(x) for x in sol.walras_history) <= WALRAS_TOL,
              "Walras's law fails along the solver path")
        check(np.allclose(refs["prices"], sol.prices, rtol=1e-12, atol=0.0),
              "price indices disagree with the solution")
        part = refs["participation"]
        check(np.allclose(part.sum(axis=1), 1.0, rtol=0.0, atol=1e-12),
              "tier participation does not sum to 1")
        if p.n_locations ** p.n_tiers <= ORACLE_MAX_PATHS:
            prices, shares, oracle_part = chain_oracle(p, sol.costs)
            _, lib_shares = path_share_matrix(p, sol.costs)
            check(np.allclose(lib_shares.sum(axis=0), 1.0, rtol=0.0, atol=1e-12),
                  "path shares do not sum to 1")
            check(np.allclose(lib_shares, shares, rtol=1e-10, atol=1e-15),
                  "path shares disagree with enumeration")
            check(np.allclose(refs["prices"], prices, rtol=1e-10, atol=0.0),
                  "price indices disagree with enumeration")
            check(np.allclose(part, oracle_part, rtol=0.0, atol=1e-12),
                  "tier participation disagrees with enumeration")


class SimulateOp(CliOperation):
    equivalents = frozenset({"scenarios.run_matrix", "charts.timeseries_chart"})

    def __init__(self, name, config: dict, config_path, out_dir):
        super().__init__(name, ["simulate", "--config", config_path, "--matrix", "--plot"],
                         out_dir)
        self.config = ScenarioConfig.from_dict(config)
        self._distinct = None

    def cell_csv(self, realization: str, env: str) -> Path:
        return self.out_dir / f"{self.config.decision_mode}_{realization}_{env}.csv"

    def probe(self, tracer, counters, op=None):
        cfg = self.config
        with tracer.span("scenarios.run_matrix", op):
            cells = run_matrix(cfg)
        charts = {}
        for (realization, env), ts in cells.items():
            title = f"{cfg.decision_mode}_{realization}_{env}"
            with tracer.span("charts.timeseries_chart", op):
                charts[title] = timeseries_chart(ts, title)
        with tracer.span("equilibrium.solve_equilibrium", op):
            solution = solve_equilibrium(cfg.economy)
        counters["equilibrium.iterations"] += solution.iterations
        chain_probes(tracer, op, cfg.economy, solution, counters)
        allocations = {}
        if cfg.decision_mode == "planner":
            kw = dict(grid_resolution=cfg.grid_resolution,
                      suppliers_per_tier=cfg.suppliers_per_tier, costs=solution.costs)
            with tracer.span("sourcing.planner_risk_sourcing", op):
                allocations["risk"] = planner_risk_sourcing(
                    cfg.economy, cfg.shock, cfg.utility, **kw)
            with tracer.span("sourcing.planner_ambiguity_sourcing", op):
                allocations["ambiguity"] = planner_ambiguity_sourcing(
                    cfg.economy, cfg.shock, cfg.beliefs, utility=cfg.utility, **kw)
            if self._distinct is None:
                self._distinct = inputs.distinct_count_vectors(
                    cfg.suppliers_per_tier, cfg.grid_resolution)
            counters["sourcing.candidates_scored"] += 2 * cfg.grid_resolution
            counters["sourcing.distinct_candidates"] += 2 * self._distinct
        return {"cells": cells, "charts": charts, "allocations": allocations}

    def verify(self, code, refs):
        cfg = self.config
        M, shock_t = cfg.suppliers_per_tier, cfg.shock_period
        for (realization, env), ts in refs["cells"].items():
            rows = read_csv(self.cell_csv(realization, env))
            check(rows[0] == list(ts.COLUMNS), "time series header")
            expect = [[str(t), str(e), str(s), str(tot), "true" if alive else "false",
                       repr(w)] for t, e, s, tot, alive, w in ts.rows()]
            check(rows[1:] == expect, f"{realization}/{env} CSV differs from run_matrix")
            unhit = read_csv(self.cell_csv("none", env))[1:]
            for k, row in enumerate(rows[1:]):
                t, east, south, total = (int(x) for x in row[:4])
                alive, welfare = row[4] == "true", float(row[5])
                check(east + south == total, "supplier columns do not add up")
                check(t == k + 1, "periods are not 1..horizon")
                if t == shock_t and realization != "none":
                    hit, other = (east, int(unhit[k][2])) if realization == "east" \
                        else (south, int(unhit[k][1]))
                    check(hit == 0, "the hit location keeps suppliers")
                    check(total == other, "suppliers elsewhere changed at the hit")
                    check(alive == (total >= 1), "chain_alive does not match the hit")
                else:
                    check(total == M, "supplier total is not conserved")
                    check(alive, "chain dies without a hit")
                check(alive == (welfare > 0.0), "welfare is not zero exactly when dead")
            name = f"{cfg.decision_mode}_{realization}_{env}"
            svg = (self.out_dir / f"{name}.svg").read_text()
            check(svg == refs["charts"][name], f"{name}.svg differs from timeseries_chart")
        for env, alloc in refs["allocations"].items():
            rows = read_csv(self.cell_csv("none", env))
            counts = supplier_counts(alloc)[:, 0]
            check([int(rows[1][1]), int(rows[1][2])] == counts.tolist(),
                  f"{env} planner allocation differs from the scenario run")

    def branch_outcomes(self):
        """(alive in every period, mean welfare) per scripted hit, from the CSVs."""
        out = {}
        for realization in ("none", "east", "south"):
            rows = read_csv(self.cell_csv(realization, self.config.info_env))[1:]
            out[realization] = (all(r[4] == "true" for r in rows),
                                float(np.mean([float(r[5]) for r in rows])))
        return out


class MonteCarloOp(Operation):
    span = "scenarios.monte_carlo_survival"

    def __init__(self, simulate: SimulateOp, n_runs: int, seed: int):
        self.name = f"mc_{simulate.name}"
        self.simulate = simulate
        self.n_runs = n_runs
        self.seed = seed

    def run(self):
        return monte_carlo_survival(self.simulate.config, self.n_runs, self.seed)

    def signature(self, summary):
        return (summary.survival_rate, summary.mean_welfare, summary.stderr, summary.n_runs)

    def probe(self, tracer, counters, op=None):
        counters["scenarios.mc_runs"] += self.n_runs
        return {}

    def verify(self, summary, refs):
        # The random stream may change; the frequencies may not.
        shock = self.simulate.config.shock
        prob = {"none": 1.0 - shock.eta, "east": shock.eta * shock.zeta,
                "south": shock.eta * (1.0 - shock.zeta)}
        branches = self.simulate.branch_outcomes()
        n = self.n_runs
        p = min(1.0, sum(prob[b] * alive for b, (alive, _) in branches.items()))
        mu = sum(prob[b] * w for b, (_, w) in branches.items())
        var = sum(prob[b] * (w - mu) ** 2 for b, (_, w) in branches.items())
        check(summary.n_runs == n, "run count")
        check(abs(summary.survival_rate - p) <= MC_SIGMAS * math.sqrt(p * (1 - p) / n)
              + MC_ROUNDING, f"survival {summary.survival_rate} is not near {p:.6f}")
        check(abs(summary.mean_welfare - mu) <= MC_SIGMAS * math.sqrt(var / n)
              + MC_ROUNDING * abs(mu), f"mean welfare {summary.mean_welfare} is not near {mu:.6g}")


class RegimeOp(Operation):
    name = "simulate_regime"
    span = "shocks.simulate_regime"

    def __init__(self, params: dict, draws: np.ndarray):
        self.params = ShockParams.from_dict(params)
        self.draws = draws

    def run(self):
        return simulate_regime(self.params, self.draws)

    def signature(self, path):
        return hashlib.sha256(np.asarray(path, dtype=np.int8).tobytes()).hexdigest()

    def probe(self, tracer, counters, op=None):
        counters["shocks.draws"] += self.draws.size
        return {}

    def verify(self, path, refs):
        # Replays the transition rule on the returned path: normal flips on
        # u < eta, shock recovers on u < lam.
        path = np.asarray(path)
        check(path.shape == self.draws.shape, "one regime per draw")
        prev = np.concatenate([[0], path[:-1]])
        expect = np.where(prev == 0, self.draws < self.params.eta,
                          self.draws >= self.params.lam).astype(path.dtype)
        check(np.array_equal(path, expect), "regime path breaks the transition rule")


def _load(tracer, op, path: Path, counters):
    with tracer.span("iotables.load_table", op):
        table = load_table(path)
    counters["iotables.bytes_parsed"] += path.stat().st_size
    return table


def check_reliance_csv(path: Path, header: str, matrix, values) -> None:
    rows = read_csv(path)
    check(rows[0] == [header] + list(matrix.columns), f"{path.name} header")
    check([r[0] for r in rows[1:]] == list(matrix.rows), f"{path.name} rows")
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            if np.isnan(values[i, j]):
                check(cell == "", f"{path.name}: own-country cell is not blank")
            else:
                check(abs(float(cell) - values[i, j]) <= CSV_ROUNDING,
                      f"{path.name}: cell {i},{j} differs from the library")


def check_row_totals(matrix) -> None:
    for country in matrix.rows:
        check(abs(matrix.row_total(country) - 100.0) <= 100.0 * BALANCE_RTOL,
              f"{matrix.metric} row {country} does not sum to 100")


class FirDiffOp(CliOperation):
    equivalents = frozenset({"iotables.load_table", "iotables.compute_fir",
                             "iotables.reliance_change"})

    def __init__(self, table_a: Path, table_b: Path, focus: list, out_dir: Path):
        super().__init__("fir_diff", ["fir", "--table", table_a, "--sector",
                                      inputs.TARGET_SECTOR, "--focus", ",".join(focus),
                                      "--diff", table_b], out_dir)
        self.tables, self.focus = (table_a, table_b), focus

    def probe(self, tracer, counters, op=None):
        matrices = []
        for path in self.tables:
            table = _load(tracer, op, path, counters)
            with tracer.span("iotables.leontief_inverse", op):
                leontief_inverse(table)
            with tracer.span("iotables.compute_fir", op):
                matrices.append(compute_fir(table, inputs.TARGET_SECTOR, focus=self.focus))
            del table
        with tracer.span("iotables.reliance_change", op):
            change = reliance_change(matrices[1], matrices[0])
        return {"matrices": matrices, "change": change}

    def verify(self, code, refs):
        before, after = refs["matrices"]
        check_row_totals(before)
        check_row_totals(after)
        check_reliance_csv(self.out_dir / "fir.csv", "fir", before, before.values)
        check_reliance_csv(self.out_dir / "fir_change.csv", "fir_change", before,
                           after.values - before.values)
        check(np.allclose(refs["change"].values, after.values - before.values,
                          equal_nan=True), "reliance_change is not after minus before")


class FmrOp(CliOperation):
    equivalents = frozenset({"iotables.load_table", "iotables.compute_fmr"})

    def __init__(self, table: Path, out_dir: Path):
        super().__init__("fmr_gross", ["fmr", "--table", table, "--sector",
                                       inputs.TARGET_SECTOR, "--measure", "gross"], out_dir)
        self.table = table

    def probe(self, tracer, counters, op=None):
        table = _load(tracer, op, self.table, counters)
        with tracer.span("iotables.compute_fmr", op):
            matrix = compute_fmr(table, inputs.TARGET_SECTOR, measure="gross")
        return {"matrix": matrix}

    def verify(self, code, refs):
        matrix = refs["matrix"]
        check_row_totals(matrix)
        check_reliance_csv(self.out_dir / "fmr.csv", "fmr", matrix, matrix.values)


class Workload:
    """Seeded inputs written under ``work/inputs``, outputs under ``work/out``."""

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed, self.smoke = seed, smoke
        self.inputs, self.out = work / "inputs", work / "out"

    def setup(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.write_inputs()

    def write_inputs(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[Operation]:
        raise NotImplementedError


class EqLadder(Workload):
    def write_inputs(self):
        self.economies = inputs.ladder(self.seed, self.smoke)
        for name, params in self.economies:
            inputs.write_json(params.to_dict(), self.inputs / f"{name}.json")

    def operations(self):
        return [EquilibriumOp(name, params, self.inputs / f"{name}.json", self.out / name)
                for name, params in self.economies]


class ShockSourcing(Workload):
    def write_inputs(self):
        self.configs = inputs.scenario_configs(self.seed, self.smoke)
        for name, cfg in self.configs:
            inputs.write_json(cfg, self.inputs / f"{name}.json")
        self.regime = inputs.regime_inputs(self.seed, self.smoke)

    def operations(self):
        sims = [SimulateOp(name, cfg, self.inputs / f"{name}.json", self.out / name)
                for name, cfg in self.configs]
        runs = inputs.SMOKE_MC_RUNS if self.smoke else inputs.MC_RUNS
        first = {}
        for sim in sims:
            first.setdefault(sim.config.decision_mode, sim)
        mcs = [MonteCarloOp(first[mode], runs, self.seed) for mode in ("individual", "planner")]
        return sims + mcs + [RegimeOp(*self.regime)]


class RelianceTables(Workload):
    def write_inputs(self):
        table_a, table_b, self.focus = inputs.table_pair(self.seed, self.smoke)
        inputs.write_table_csv(table_a, self.inputs / "table_a.csv")
        inputs.write_table_csv(table_b, self.inputs / "table_b.csv")

    def operations(self):
        a, b = self.inputs / "table_a.csv", self.inputs / "table_b.csv"
        return [FirDiffOp(a, b, self.focus, self.out / "fir_diff"),
                FmrOp(a, self.out / "fmr_gross")]


WORKLOADS = {
    "eq_ladder": EqLadder,
    "shock_sourcing": ShockSourcing,
    "reliance_tables": RelianceTables,
}
