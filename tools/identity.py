"""Byte-identity corpus: one digest per record of gscsim's output on fixed inputs.

    python3 tools/identity.py --out identity.json [--smoke]
    python3 tools/identity.py --compare parent.json change.json

A run writes one JSON object mapping each record name to the sha256 of the
record's canonical serialisation.  Run it in two checkouts on one machine
(gscsim is imported from the ``src/`` next to this directory) and
``--compare`` lists the records whose digests differ, or that only one side
has, and exits 1 if there are any.  Digests are not pinned anywhere: numpy
and BLAS builds may differ in the last bits.

The inputs are the benchmark's own, from ``bench/inputs.py``.  Records:

* ``config/...``: ``json.dumps(to_dict())`` and the manifest's config hash
  of the scenario configs of seeds 0-3 and the ladder economies of seeds 0-1;
* ``cli/...``: in-process ``simulate --matrix --plot`` on those scenario
  configs, ``equilibrium`` on those economies (some exit 4), and
  ``fir --diff`` and ``fmr --measure gross`` on ``table_pair(0)``, each with
  its exit code, stdout, stderr, output files and the manifest without
  ``created_utc``;
* ``phi/...``: the allocation bytes of ``choose_allocation`` under both
  information environments and of both public planners, per scenario config;
* ``error/...``: the error text, or the JSON form, of each config that
  :func:`_malformed` lists;
* ``cli-fail/...``: the CLI runs of :func:`failed_runs`, each exiting 2, 3
  or 4 into an ``--out`` that did not exist, with the files the run left
  there and whether it created ``--out``;
* ``objective/...``: ``risk_objective``, ``ambiguity_objective``, and
  ``allocation_value`` and ``chain_survives`` under each shock branch, of
  random allocations (2 locations, 1-3 tiers, 1-30 suppliers per tier)
  spread over the scenario economies at their equilibrium costs;
* ``solve/...``: ``solve_equilibrium`` on the ladder economies of seeds 0-1
  and on the draws of :func:`census_draws`, each as the bytes of wages,
  prices and costs with ``iterations``, ``walras_history`` and
  ``residual_norm``, or as the error a failed solve raises with its
  iteration count and residual norm;
* ``chain/...``: every public function of ``gscsim.chains`` on the economies
  of :func:`chain_economies` at random costs, each result as its bytes or
  repr, or the error it raises; and per economy, ``price_indices`` at the
  costs given as float32, as a list, as a strided float64 view, with a NaN,
  with a zero and with one location too many;
* ``reliance/...``: ``compute_fir`` and ``compute_fmr`` under both measures
  on ``table_pair`` seeds 0-3 (both tables, sectors MFG, S05 and S29, five
  focus choices), on the tables of :func:`bound_tables` and on the
  three-cycles of :func:`three_cycles`, each as the matrix bytes or the
  error text; and one bad measure, focus or sector at a time on
  ``table_pair(0)``;
* ``scenario/...``: every ``TimeSeries`` column, the allocation and the
  labels of each ``run_matrix`` cell and of ``run_scenario`` under each
  realisation, on the scenario configs of seeds 0-3;
  ``monte_carlo_survival`` at 1, 7 and 1000 runs with the config's seed;
  and per seed, the ``simulate_regime`` path from both regimes over the
  first 10**5 draws of the benchmark's regime input.

``--smoke`` keeps seed 0 and the benchmark's smoke sizes, and leaves out the
``cli-fail``, ``objective``, ``solve``, ``chain``, ``reliance`` and
``scenario`` records.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gscsim import (  # noqa: E402
    EconomyParams,
    EquilibriumConvergenceError,
    ScenarioConfig,
    SourcingAllocation,
    ShockParams,
    WorldIOTable,
    allocation_value,
    ambiguity_objective,
    chain_survives,
    choose_allocation,
    compute_fir,
    compute_fmr,
    monte_carlo_survival,
    planner_ambiguity_sourcing,
    planner_risk_sourcing,
    risk_objective,
    run_matrix,
    run_scenario,
    simulate_regime,
    solve_equilibrium,
)
from gscsim import chains  # noqa: E402
from gscsim.cli import main as cli_main  # noqa: E402
from gscsim.scenarios import INFO_ENVS, REALIZATIONS  # noqa: E402
from gscsim.shocks import BRANCHES  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

SCENARIO_SEEDS = (0, 1, 2, 3)
LADDER_SEEDS = (0, 1)
TABLE_SEED = 0
N_ALLOCATIONS = 300
ALLOCATION_SEED = 2024
N_CENSUS_DRAWS = 240
N_CHAIN_ECONOMIES = 60
CHAIN_SEED = 2025
RELIANCE_SECTORS = ("MFG", "S05", "S29")
SMOKE_RELIANCE_SECTORS = ("MFG", "S02")
N_BOUND_TABLES = 120
BOUND_SEED = 15
MC_RUNS = (1, 7, 1000)
REGIME_DRAWS = 10**5


def _without(d: dict, *keys) -> dict:
    return {k: v for k, v in d.items() if k not in keys}


def _malformed(scenario: dict) -> list[tuple[str, type, object]]:
    """(name, config class, JSON value) of each malformed config."""
    economy, shock = scenario["economy"], scenario["shock"]
    return [
        ("scenario/empty", ScenarioConfig, {}),
        ("scenario/no-economy", ScenarioConfig, _without(scenario, "economy")),
        ("scenario/no-shock", ScenarioConfig, _without(scenario, "shock")),
        ("scenario/list", ScenarioConfig, [1, 2]),
        ("scenario/null", ScenarioConfig, None),
        ("scenario/economy-string", ScenarioConfig, {**scenario, "economy": "x"}),
        ("scenario/economy-no-tau", ScenarioConfig,
         {**scenario, "economy": _without(economy, "tau")}),
        ("scenario/shock-eta-only", ScenarioConfig, {**scenario, "shock": {"eta": 0.2}}),
        ("scenario/shock-eta-2", ScenarioConfig, {**scenario, "shock": {**shock, "eta": 2.0}}),
        ("scenario/shock-number", ScenarioConfig, {**scenario, "shock": 0.2}),
        ("scenario/utility-empty", ScenarioConfig, {**scenario, "utility": {}}),
        ("scenario/utility-int", ScenarioConfig, {**scenario, "utility": 5}),
        ("scenario/utility-nan", ScenarioConfig, {**scenario, "utility": {"rho": math.nan}}),
        ("scenario/beliefs-list", ScenarioConfig, {**scenario, "beliefs": [0.1, 0.9]}),
        ("scenario/beliefs-empty", ScenarioConfig, {**scenario, "beliefs": {}}),
        ("scenario/beliefs-reversed", ScenarioConfig,
         {**scenario, "beliefs": {"zeta_lo": 0.9, "zeta_hi": 0.1}}),
        ("scenario/horizon-true", ScenarioConfig, {**scenario, "horizon": True}),
        ("scenario/grid-fraction", ScenarioConfig, {**scenario, "grid_resolution": 2.5}),
        ("economy/list", EconomyParams, [1, 2]),
        ("economy/no-theta-sigma", EconomyParams, _without(economy, "theta", "sigma")),
        ("economy/L-booleans", EconomyParams, {**economy, "L": [True, True]}),
    ]


def _digest(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _config_hash(obj) -> str:
    """The ``config_hash`` the CLI writes to a manifest."""
    return _digest(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def _run_cli(argv: list[str], out: str = "out") -> dict:
    """Exit code, stdout, stderr and output digests of one CLI run in ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([*argv, "--out", out])
    files = {}
    for path in sorted(Path(out).glob("*")):
        if path.name == "manifest.json":
            files[path.name] = _digest(_without(json.loads(path.read_text()), "created_utc"))
        else:
            files[path.name] = _digest(path.read_bytes())
        path.unlink()
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def _scenario_records(seed: int, smoke: bool, out: dict) -> None:
    for name, cfg in inputs.scenario_configs(seed, smoke=smoke):
        key = f"s{seed}/{name}"
        config = ScenarioConfig.from_dict(cfg)
        d = config.to_dict()
        out[f"config/scenario/{key}"] = _digest([json.dumps(d), _config_hash(d)])
        inputs.write_json(cfg, "config.json")
        out[f"cli/simulate/{key}"] = _digest(_run_cli(
            ["simulate", "--config", "config.json", "--matrix", "--plot"]))
        solution = solve_equilibrium(config.economy)
        for env in INFO_ENVS:
            alloc = choose_allocation(replace(config, info_env=env), solution)
            out[f"phi/choose/{key}/{env}"] = _digest(alloc.phi.tobytes() + alloc.M.tobytes())
        kw = dict(grid_resolution=config.grid_resolution,
                  suppliers_per_tier=config.suppliers_per_tier, costs=solution.costs)
        for planner, alloc in (
                ("risk", planner_risk_sourcing(config.economy, config.shock, config.utility, **kw)),
                ("ambiguity", planner_ambiguity_sourcing(config.economy, config.shock,
                                                         config.beliefs, config.utility, **kw))):
            out[f"phi/{planner}/{key}"] = _digest(alloc.phi.tobytes() + alloc.M.tobytes())


def _ladder_records(seed: int, smoke: bool, out: dict) -> None:
    for name, economy in inputs.ladder(seed, smoke=smoke):
        key = f"s{seed}/{name}"
        d = economy.to_dict()
        out[f"config/economy/{key}"] = _digest([json.dumps(d), _config_hash(d)])
        inputs.write_json(d, "economy.json")
        out[f"cli/equilibrium/{key}"] = _digest(_run_cli(
            ["equilibrium", "--params", "economy.json"]))


def _table_records(smoke: bool, out: dict) -> None:
    table_a, table_b, focus = inputs.table_pair(TABLE_SEED, smoke=smoke)
    inputs.write_table_csv(table_a, "a.csv")
    inputs.write_table_csv(table_b, "b.csv")
    sector = ["--sector", inputs.TARGET_SECTOR]
    out[f"cli/fir-diff/s{TABLE_SEED}"] = _digest(_run_cli(
        ["fir", "--table", "a.csv", *sector, "--focus", ",".join(focus), "--diff", "b.csv"]))
    out[f"cli/fmr-gross/s{TABLE_SEED}"] = _digest(_run_cli(
        ["fmr", "--table", "a.csv", *sector, "--measure", "gross"]))


def failed_runs(smoke: bool = False) -> dict[str, dict]:
    """Record name -> :func:`_run_cli` of each failing run, plus ``out_exists``.

    Each run writes into ``failed``, which must not exist before it and is
    removed after it.  The stiff economies are the ladder's of seed 0, which
    exit 4 under the damped solver.
    """
    table, _, _ = inputs.table_pair(TABLE_SEED, smoke=smoke)
    inputs.write_table_csv(table, "fail.csv")
    stiff = dict(inputs.ladder(0))
    scenario = {**inputs.scenario_configs(0, smoke=smoke)[0][1],
                "economy": stiff["stiff09_j2n1"].to_dict()}
    inputs.write_json(scenario, "stiff09.json")
    inputs.write_json(stiff["stiff01_j3n1"].to_dict(), "stiff01.json")
    Path("invalid.json").write_text("{nope")
    sector = ["--sector", inputs.TARGET_SECTOR]
    runs = {
        f"fir-diff-missing/s{TABLE_SEED}":
            ["fir", "--table", "fail.csv", *sector, "--diff", "missing.csv"],
        f"fmr-bad-sector/s{TABLE_SEED}": ["fmr", "--table", "fail.csv", "--sector", "NOPE"],
        "simulate-stiff09_j2n1/s0": ["simulate", "--config", "stiff09.json", "--matrix", "--plot"],
        "simulate-missing-config": ["simulate", "--config", "missing.json"],
        "simulate-invalid-json": ["simulate", "--config", "invalid.json"],
        "equilibrium-stiff01_j3n1/s0": ["equilibrium", "--params", "stiff01.json"],
    }
    records = {}
    for name, argv in runs.items():
        if Path("failed").exists():
            raise RuntimeError("failed/ exists before a failing run")
        record = _run_cli(argv, "failed")
        record["out_exists"] = Path("failed").exists()
        shutil.rmtree("failed", ignore_errors=True)
        records[f"cli-fail/{name}"] = record
    for path in ("fail.csv", "stiff09.json", "stiff01.json", "invalid.json"):
        os.remove(path)
    return records


def _objective_records(out: dict) -> None:
    """The sourcing objectives of random allocations.  Each value is kept as
    its repr, which is exact and also tells a Python float from a numpy one."""
    cases = []
    for seed in SCENARIO_SEEDS:
        for _, cfg in inputs.scenario_configs(seed):
            config = ScenarioConfig.from_dict(cfg)
            cases.append((config, solve_equilibrium(config.economy).costs))
    rng = np.random.default_rng(ALLOCATION_SEED)
    for k in range(N_ALLOCATIONS):
        config, costs = cases[k % len(cases)]
        n_tiers = int(rng.integers(1, 4))
        south = rng.random(n_tiers)
        corner = rng.random(n_tiers) < 0.25      # a whole tier in one location
        south[corner] = rng.integers(0, 2, size=int(corner.sum()))
        alloc = SourcingAllocation(phi=np.stack([1.0 - south, south]),
                                   M=rng.integers(1, 31, size=n_tiers))
        econ, shock = config.economy, config.shock
        values = [risk_objective(alloc, econ, shock, config.utility, costs),
                  ambiguity_objective(alloc, econ, shock, config.beliefs, config.utility, costs)]
        for draw in BRANCHES:
            values += [allocation_value(alloc, draw, econ, costs), chain_survives(alloc, draw)]
        out[f"objective/{k:03d}"] = _digest([alloc.phi.tobytes().hex(), alloc.M.tolist(),
                                             [repr(v) for v in values]])


def census_draws(n: int = N_CENSUS_DRAWS) -> list[tuple[str, EconomyParams]]:
    """(name, economy) of draws 0 to n - 1.  Draw s takes ``default_rng(s)``,
    J in 1-6, N in 1-4 and theta U(2, 20); gamma is 1, 0.7 or U(0.3, 1) as
    s % 3 is 0, 1 or 2."""
    draws = []
    for s in range(n):
        rng = np.random.default_rng(s)
        J, N = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        theta = float(rng.uniform(2.0, 20.0))
        gamma = (1.0, 0.7)[s % 3] if s % 3 < 2 else float(rng.uniform(0.3, 1.0))
        draws.append((f"census/{s:03d}_j{J}n{N}",
                      inputs.random_economy(rng, J, N, theta, gamma)))
    return draws


def _solve_outcome(economy: EconomyParams) -> list:
    """What ``solve_equilibrium`` returns, or the error it raises."""
    try:
        sol = solve_equilibrium(economy)
    except (EquilibriumConvergenceError, ValueError) as err:
        return [f"{type(err).__name__}: {err}", getattr(err, "iterations", None),
                getattr(err, "residual_norm", None)]
    return [sol.wages.tobytes().hex(), sol.prices.tobytes().hex(), sol.costs.tobytes().hex(),
            sol.iterations, sol.walras_history, sol.residual_norm]


def _solve_records(out: dict, n_draws: int = N_CENSUS_DRAWS, smoke: bool = False) -> None:
    cases = [(f"ladder/s{seed}/{name}", economy)
             for seed in (LADDER_SEEDS[:1] if smoke else LADDER_SEEDS)
             for name, economy in inputs.ladder(seed, smoke=smoke)]
    for name, economy in cases + census_draws(n_draws):
        out[f"solve/{name}"] = _digest(_solve_outcome(economy))


def _outcome(call):
    """What ``call()`` returns, arrays as dtype, shape and hex bytes and
    anything else as its repr, or the error it raises."""
    try:
        value = call()
    except (ValueError, TypeError) as err:
        return f"{type(err).__name__}: {err}"
    values = value if isinstance(value, tuple) else (value,)
    return [[v.dtype.str, v.shape, v.tobytes().hex()] if isinstance(v, np.ndarray) else repr(v)
            for v in values]


def chain_economies(n: int = N_CHAIN_ECONOMIES) -> list[tuple[str, EconomyParams, np.ndarray]]:
    """(name, economy, costs) of economies 0 to n - 1.  Economy k takes
    ``default_rng((CHAIN_SEED, k))``, J in 1-5, N in 1-3, theta U(2, 12),
    gamma 1 or U(0.3, 1) as k is even or odd, and costs U(0.4, 2.5)."""
    out = []
    for k in range(n):
        rng = np.random.default_rng((CHAIN_SEED, k))
        J, N = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        theta = float(rng.uniform(2.0, 12.0))
        gamma = 1.0 if k % 2 == 0 else float(rng.uniform(0.3, 1.0))
        economy = inputs.random_economy(rng, J, N, theta, gamma)
        out.append((f"{k:02d}_j{J}n{N}", economy, rng.uniform(0.4, 2.5, size=J)))
    return out


def _chain_records(out: dict, n_economies: int = N_CHAIN_ECONOMIES) -> None:
    for k, (name, p, costs) in enumerate(chain_economies(n_economies)):
        rng = np.random.default_rng((CHAIN_SEED, k, 1))    # the arguments besides costs
        J, N = p.n_locations, p.n_tiers
        path, dest = rng.integers(0, J, size=N), int(rng.integers(0, J))
        weights, z, pi_jj = rng.uniform(0.5, 2.0, size=J), float(rng.uniform(0.2, 3.0)), 0.5
        prices = chains.price_indices(p, costs)
        calls = {
            "kappa": lambda: chains.kappa(p.theta, p.sigma),
            "composite_cost": lambda: chains.composite_cost(costs, prices, p.gamma),
            "enumerate_paths": lambda: chains.enumerate_paths(J, N),
            "path_scale_matrix": lambda: chains.path_scale_matrix(p, costs),
            "chain_cost_scale": lambda: chains.chain_cost_scale(path, dest, p, costs),
            "path_share": lambda: chains.path_share(path, dest, p, costs),
            "path_share_matrix": lambda: chains.path_share_matrix(p, costs),
            "price_indices": lambda: chains.price_indices(p, costs),
            "price_index": lambda: chains.price_index(dest, p, costs),
            "final_demand_shares": lambda: chains.final_demand_shares(p, costs),
            "tier_participation": lambda: chains.tier_participation(p, costs),
            "intermediate_flow_shares": lambda: chains.intermediate_flow_shares(p, costs),
            "intermediate_flow_shares/weighted":
                lambda: chains.intermediate_flow_shares(p, costs, weights),
            "local_chain_real_wage": lambda: chains.local_chain_real_wage(dest, p, pi_jj),
            "chain_productivity_location": lambda: chains.chain_productivity_location(path, p),
            "chain_productivity_cdf": lambda: chains.chain_productivity_cdf(z, path, p),
            "chain_productivity_theta_sensitivity":
                lambda: chains.chain_productivity_theta_sensitivity(z, path, p),
        }
        # The costs in every form the positive-array rule converts or refuses.
        forms = {
            "float32": costs.astype(np.float32),
            "list": costs.tolist(),
            "strided": np.repeat(costs, 2)[::2],
            "nan": np.where(np.arange(J) == 0, np.nan, costs),
            "zero": np.where(np.arange(J) == J - 1, 0.0, costs),
            "too-long": np.append(costs, 1.0),
        }
        calls.update({f"costs/{form}": functools.partial(chains.price_indices, p, value)
                      for form, value in forms.items()})
        for fn, call in calls.items():
            out[f"chain/{name}/{fn}"] = _digest(_outcome(call))


def _reliance_outcome(compute, table: WorldIOTable, sector: str = inputs.TARGET_SECTOR,
                      focus=None, measure: str = "va"):
    """The bytes of a reliance matrix, or the error computing it raises."""
    try:
        m = compute(table, sector, focus=focus, measure=measure)
    except ValueError as err:               # TableFormatError included
        return f"{type(err).__name__}: {err}"
    return [m.metric, m.target_sector, m.measure, m.rows, m.columns,
            m.values.tobytes().hex(), m.domestic.tobytes().hex()]


def _both_ways(out: dict, key: str, table: WorldIOTable, sector: str = inputs.TARGET_SECTOR,
               focus=None) -> None:
    """FIR and FMR records of ``table`` under both measures."""
    for measure in ("va", "gross"):
        for compute in (compute_fir, compute_fmr):
            out[f"reliance/{key}/{measure}/{compute.__name__[-3:]}"] = _digest(
                _reliance_outcome(compute, table, sector, focus, measure))


def bound_tables(n: int = N_BOUND_TABLES) -> list[tuple[str, WorldIOTable]]:
    """(name, table) of n balanced tables whose input coefficients are
    productive although a column sum and a row sum both exceed 1.

    Table k takes ``default_rng((BOUND_SEED, k))``: C in 1-4 countries and S
    in 1-3 sectors (at least two country-sectors), A = D A0 D^-1 for a random
    A0 of spectral radius U(0.5, 0.95) and a diagonal D whose log spread
    grows until both sums pass 1, and final demand U(0.5, 2).  Value added,
    x - Z's column sums, is then negative somewhere.
    """
    tables = []
    for k in range(n):
        rng = np.random.default_rng((BOUND_SEED, k))
        C = int(rng.integers(1, 5))
        S = int(rng.integers(2 if C == 1 else 1, 4))
        size = C * S
        A0 = rng.uniform(0.0, 1.0, size=(size, size))
        A0 *= rng.uniform(0.5, 0.95) / np.max(np.abs(np.linalg.eigvals(A0)))
        logs = rng.uniform(-1.0, 1.0, size=size)
        spread = 1.0
        while True:
            d = np.exp(spread * logs)
            A = d[:, None] * A0 / d[None, :]
            if A.sum(axis=0).max() > 1.0 and A.sum(axis=1).max() > 1.0:
                break
            spread *= 1.5
        F = rng.uniform(0.5, 2.0, size=(size, C))
        x = np.linalg.solve(np.eye(size) - A, F.sum(axis=1))
        Z = A * x[None, :]
        tables.append((f"{k:03d}_c{C}s{S}", WorldIOTable(
            countries=[f"K{i}" for i in range(C)],
            sectors=[inputs.TARGET_SECTOR] + [f"S{i:02d}" for i in range(1, S)],
            Z=Z, F=F, v=x - Z.sum(axis=0), x=x)))
    return tables


def three_cycles(smoke: bool = False) -> list[tuple[str, WorldIOTable]]:
    """(name, table) of the three-cycle ``[[0, .5, 0], [0, 0, .5], [a, 0, 0]]``
    for a from 3.9 to 4.1 in steps of 0.005, productive exactly below a = 4;
    at smoke size a is 3.9, 4.0 and 4.1.  Z is set on a balanced three-country
    table, as in ``tests/test_iotables.py``, so it is not rebalanced."""
    tables = []
    for a in np.linspace(3.9, 4.1, 41)[::20 if smoke else 1]:
        table = inputs.balanced_table(np.random.default_rng(16), ["AAA", "BBB", "CCC"],
                                      [inputs.TARGET_SECTOR])
        table.Z = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [a, 0.0, 0.0]]) * table.x[None, :]
        tables.append((f"{a:.3f}", table))
    return tables


def _reliance_records(out: dict, smoke: bool = False) -> None:
    sectors = SMOKE_RELIANCE_SECTORS if smoke else RELIANCE_SECTORS
    for seed in SCENARIO_SEEDS[:1] if smoke else SCENARIO_SEEDS:
        table_a, table_b, focus = inputs.table_pair(seed, smoke=smoke)
        countries = table_a.countries
        focuses = {"all": None, "bench": focus, "reversed": focus[::-1],
                   "one": focus[0], "third": countries[::3]}
        for label, table in (("a", table_a), ("b", table_b)):
            for sector in sectors:
                for how, chosen in focuses.items():
                    _both_ways(out, f"pair/s{seed}/{label}/{sector}/{how}", table, sector, chosen)
        if seed == 0:       # one bad argument at a time
            faults = {"measure": dict(measure="bogus"), "focus-unknown": dict(focus=["ZZZ"]),
                      "focus-repeated": dict(focus=[focus[0], focus[0]]),
                      "sector": dict(sector="NOPE")}
            for fault, kw in faults.items():
                for compute in (compute_fir, compute_fmr):
                    out[f"reliance/fault/{fault}/{compute.__name__[-3:]}"] = _digest(
                        _reliance_outcome(compute, table_a, **kw))
    for name, table in bound_tables(6 if smoke else N_BOUND_TABLES):
        _both_ways(out, f"bounds/{name}", table)
    for name, table in three_cycles(smoke):
        _both_ways(out, f"cycle/{name}", table)


def _series(ts) -> list:
    """Every column of a ``TimeSeries`` as dtype and hex bytes, then its
    allocation's bytes and its three labels."""
    return ([[column, getattr(ts, column).dtype.str, getattr(ts, column).tobytes().hex()]
             for column in ts.COLUMNS]
            + [ts.allocation.phi.tobytes().hex(), ts.allocation.M.tobytes().hex(),
               ts.decision_mode, ts.info_env, ts.realization])


def _scenario_run_records(out: dict, seeds=SCENARIO_SEEDS, smoke: bool = False) -> None:
    for seed in seeds:
        for name, cfg in inputs.scenario_configs(seed, smoke=smoke):
            key = f"scenario/s{seed}/{name}"
            config = ScenarioConfig.from_dict(cfg)
            for (realization, env), ts in run_matrix(config).items():
                out[f"{key}/matrix/{realization}/{env}"] = _digest(_series(ts))
            for realization in REALIZATIONS:
                ts = run_scenario(replace(config, realization=realization))
                out[f"{key}/run/{realization}"] = _digest(_series(ts))
            for n_runs in MC_RUNS:
                mc = monte_carlo_survival(config, n_runs, config.seed)
                out[f"{key}/mc/{n_runs}"] = _digest(
                    [repr(v) for v in (mc.survival_rate, mc.mean_welfare, mc.stderr, mc.n_runs)])
        shock, draws = inputs.regime_inputs(seed)
        for initial in (0, 1):
            path = simulate_regime(ShockParams(**shock), draws[:REGIME_DRAWS], initial=initial)
            out[f"scenario/s{seed}/regime/{initial}"] = _digest(
                [path.dtype.str, path.tobytes().hex()])


def _error_records(out: dict) -> None:
    scenario = inputs.scenario_configs(0, smoke=True)[0][1]
    for name, cls, value in _malformed(scenario):
        try:
            outcome = "ok " + json.dumps(cls.from_dict(value).to_dict())
        except (ValueError, TypeError, KeyError) as err:
            outcome = f"{type(err).__name__}: {err}"
        out[f"error/{name}"] = _digest(outcome)


def collect(smoke: bool = False) -> dict[str, str]:
    """Record name -> digest for the whole corpus, or its smoke subset.

    CLI runs take relative paths inside a temporary working directory, so
    that neither manifests nor messages name the directory.
    """
    out: dict[str, str] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in SCENARIO_SEEDS[:1] if smoke else SCENARIO_SEEDS:
                _scenario_records(seed, smoke, out)
            for seed in LADDER_SEEDS[:1] if smoke else LADDER_SEEDS:
                _ladder_records(seed, smoke, out)
            _table_records(smoke, out)
            if not smoke:
                out.update({name: _digest(record)
                            for name, record in failed_runs().items()})
        finally:
            os.chdir(cwd)
    _error_records(out)
    if not smoke:
        _objective_records(out)
        _solve_records(out)
        _chain_records(out)
        _reliance_records(out)
        _scenario_run_records(out)
    return dict(sorted(out.items()))


def compare(a: dict, b: dict) -> list[str]:
    """Names of the records whose digests differ or that only one side has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the digests of this checkout to this file")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="list the records that differ between two digest files")
    parser.add_argument("--smoke", action="store_true", help="seed 0 at smoke sizes only")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = compare(a, b)
        for name in differ:
            print(f"{name}: {a.get(name, 'missing')} -> {b.get(name, 'missing')}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} records differ")
        return 1 if differ else 0
    digests = collect(smoke=args.smoke)
    Path(args.out).write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
