"""Byte-identity corpus: one digest per record of gscsim's output on fixed inputs.

    python3 tools/identity.py --out identity.json [--smoke] [--src DIR]
    python3 tools/identity.py --compare parent.json change.json

A run writes one JSON object mapping each record name to the sha256 of the
record's outcome.  gscsim is imported from the ``src/`` next to this
directory, or with ``--src DIR`` from ``DIR``, so one copy of the tool
digests any revision's sources on the same inputs and records: for example
``git archive REV src | tar -x -C /tmp/rev`` and ``--src /tmp/rev/src``.  A
run that imports gscsim from anywhere but ``DIR`` exits 2.  Run it on two
source trees on one machine and ``--compare`` lists the records whose
digests differ, or that only one side has, and exits 1 if there are any.  A
run uses one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1 whatever the environment holds), so the
thread count of the machine or the shell changes no digest.  Digests are not
pinned anywhere: numpy and BLAS builds may differ in the last bits.

Every record is a (name, call) pair, and one rule, :func:`_outcome`, makes
the call's outcome: the type and message of the error it raises, with the
``iterations`` and ``residual_norm`` of a failed solve, or else what it
returns, an array or a numpy scalar as its dtype, shape and the sha256 of
its bytes, a dataclass field by field, a dict or a sequence item by item,
and anything else as its exact repr.

The inputs are the benchmark's own, from ``bench/inputs.py``.  The records,
one generator of pairs per family:

* ``config/...``, ``cli/...`` and ``phi/...`` (:func:`_config_cases`): the
  JSON text and manifest config hash of the scenario configs of seeds 0-3
  and the ladder economies of seeds 0-1; in-process ``simulate --matrix
  --plot`` on those scenario configs, ``equilibrium`` on those economies
  (some exit 4), and ``fir --diff`` and ``fmr --measure gross`` on
  ``table_pair(0)``, each as its exit code, stdout, stderr, output files and
  manifest without ``created_utc``; and ``choose_allocation`` under both
  information environments and both public planners, per scenario config;
* ``loader/...`` (:func:`_loader_cases`): ``load_table`` on the
  ``table_pair`` tables of seeds 0-3, written by ``write_table_csv`` of
  ``bench/inputs.py``, and on each text of ``loader_inputs`` in
  ``tests/test_iotables.py`` (a module that imports pytest), each file named
  by a relative path;
* ``error/...`` (:func:`_error_cases`): each config that :func:`_malformed`
  lists, and under ``error/range/...`` each bounded field of the README's
  config-ranges table set one step past each bound (:func:`range_cases`);
* ``solve/...`` (:func:`_solve_cases`): ``solve_equilibrium`` on the ladder
  economies of seeds 0-1, on the draws of :func:`census_draws` and on the
  two draws of :func:`overflow_draws`, whose float fault comes after sweep 0;
* ``cli-fail/...`` (:func:`_failed_cases`): CLI runs that exit 2, 3 or 4
  into an ``--out`` that did not exist, with the files each left there and
  whether it created ``--out``;
* ``objective/...`` (:func:`_objective_cases`): ``risk_objective``,
  ``ambiguity_objective``, and ``allocation_value`` and ``chain_survives``
  under each shock branch, of random allocations (2 locations, 1-3 tiers,
  1-30 suppliers per tier) spread over the scenario economies at their
  equilibrium costs;
* ``chain/...`` (:func:`_chain_cases`): every public function of
  ``gscsim.chains`` on the economies of :func:`chain_economies` at random
  costs; and per economy, ``price_indices`` at the costs given as float32,
  as a list, as a strided float64 view, with a NaN, with a zero and with one
  location too many;
* ``reliance/...`` (:func:`_reliance_cases`): ``compute_fir`` and
  ``compute_fmr`` under both measures on ``table_pair`` seeds 0-3 (both
  tables, sectors MFG, S05 and S29, five focus choices), on the tables of
  :func:`bound_tables` and on the three-cycles of :func:`three_cycles`; and
  one bad measure, focus or sector at a time on ``table_pair(0)``;
* ``scenario/...`` (:func:`_scenario_cases`): each ``run_matrix`` cell and
  ``run_scenario`` under each realisation, on the scenario configs of seeds
  0-3; ``monte_carlo_survival`` at 1, 7 and 1000 runs with the config's
  seed; and per seed, the ``simulate_regime`` path from both regimes over
  the first 10**5 draws of the benchmark's regime input.

``--smoke`` keeps the first four families at seed 0 and the benchmark's
smoke sizes: of the ``solve`` records those of the smoke ladder, of the
first ``N_SMOKE_CENSUS_DRAWS`` census draws and of both overflow draws
(about 5 s of solves), and every ``loader_inputs`` text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    # One BLAS thread, whatever the environment says: the 1200-sector
    # reliance solves round differently at other thread counts.  Set before
    # numpy loads BLAS; an import (as the tests make) changes nothing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # --src is read before anything imports gscsim.
    early = argparse.ArgumentParser(add_help=False)
    early.add_argument("--src", type=Path)
    SRC = (early.parse_known_args()[0].src or SRC).resolve()
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from gscsim import (  # noqa: E402
    BeliefSet,
    EconomyParams,
    EquilibriumConvergenceError,
    ScenarioConfig,
    SolverConfig,
    SourcingAllocation,
    ShockParams,
    UtilitySpec,
    WorldIOTable,
    allocation_value,
    ambiguity_objective,
    chain_survives,
    choose_allocation,
    compute_fir,
    compute_fmr,
    load_table,
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


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_module("bench_inputs", ROOT / "bench" / "inputs.py")

SCENARIO_SEEDS = (0, 1, 2, 3)
LADDER_SEEDS = (0, 1)
TABLE_SEED = 0
N_ALLOCATIONS = 300
ALLOCATION_SEED = 2024
N_CENSUS_DRAWS = 240
N_SMOKE_CENSUS_DRAWS = 90
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


# The README table of config ranges, one row per bounded field: section,
# field, "real" or "whole", the range as "(0, 1]" or "[1, horizon]", and the
# default; tests/test_numeric_inputs.py checks the table against the code.
RANGE_ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (real|whole) \| `([^`]+)` \| ([^|]+?) \|$",
                       re.MULTILINE)
# The entry of each economy array that a range record sets.
ECONOMY_ENTRY = {"T": (0, 0), "L": 0, "tau": (0, 1), "alpha": 0, "beta": 0}


def _outside(spec: str, numbers: str) -> list:
    """The value one step past each bound of ``spec``: an open bound itself,
    a closed finite one moved out by one float, or by one if ``whole``."""
    low, high = (float(bound) for bound in spec[1:-1].split(","))
    values = []
    for bound, closed, sign in ((low, spec[0] == "[", -1), (high, spec[-1] == "]", 1)):
        if not closed:
            values.append(bound)
        elif math.isfinite(bound):
            values.append(int(bound) + sign if numbers == "whole"
                          else float(np.nextafter(bound, sign * math.inf)))
    return values


def _economy_with(economy: dict, key: str, value) -> EconomyParams:
    """``EconomyParams`` of ``economy`` with ``key``, or for an array its
    ``ECONOMY_ENTRY``, set to ``value``."""
    d = {**economy, key: value}
    if key in ECONOMY_ENTRY:
        arr = np.array(economy[key], dtype=float)
        arr[ECONOMY_ENTRY[key]] = value
        d[key] = arr.tolist()
    return EconomyParams.from_dict(d)


def range_cases(scenario: dict) -> list[tuple[str, object]]:
    """(record name, call) of each row of the README's config ranges, set
    one step past each bound in the ``scenario`` config or its section; the
    solver is built from keywords, every other config from its JSON form."""
    configs = {"shock": (ShockParams, scenario["shock"]),
               "utility": (UtilitySpec, scenario["utility"]),
               "beliefs": (BeliefSet, scenario["beliefs"]), "scenario": (ScenarioConfig, scenario)}
    cases = []
    for section, key, numbers, spec, _ in RANGE_ROW.findall((ROOT / "README.md").read_text()):
        for value in _outside(spec.replace("horizon", str(scenario["horizon"])), numbers):
            if section == "economy":
                call = functools.partial(_economy_with, scenario["economy"], key, value)
            elif section == "solver":
                call = functools.partial(SolverConfig, **{key: value})
            else:
                cls, base = configs[section]
                call = functools.partial(cls.from_dict, {**base, key: value})
            cases.append((f"range/{section}.{key}/{value!r}", call))
    return cases


def _error_cases():
    scenario = inputs.scenario_configs(0, smoke=True)[0][1]
    for name, cls, value in _malformed(scenario):
        yield f"error/{name}", functools.partial(cls.from_dict, value)
    for name, call in range_cases(scenario):
        yield f"error/{name}", call


def _digest(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _view(value):
    """A value in record form: an array or a numpy scalar as its dtype, shape
    and the sha256 of its bytes, a dataclass field by field, a dict or a
    sequence item by item, and anything else as its exact repr."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = np.asarray(value)
        return [value.dtype.str, list(value.shape), _digest(value.tobytes())]
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): _view(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_view(item) for item in value]
    return repr(value)


def _outcome(call):
    """The one record rule: the :func:`_view` of what ``call()`` returns, or
    the type and message of the error it raises, with the iteration count
    and residual norm that a failed solve carries."""
    try:
        return _view(call())
    except EquilibriumConvergenceError as err:
        return [f"{type(err).__name__}: {err}", _view(err.iterations), _view(err.residual_norm)]
    except (ValueError, TypeError, KeyError) as err:    # TableFormatError included
        return f"{type(err).__name__}: {err}"


def _config_forms(config) -> list:
    """A config's JSON text, and the compact sorted text whose sha256 the CLI
    writes to a manifest as ``config_hash``."""
    d = config.to_dict()
    return [json.dumps(d), json.dumps(d, sort_keys=True, separators=(",", ":"))]


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


def _config_cases(smoke: bool = False):
    for seed in SCENARIO_SEEDS[:1] if smoke else SCENARIO_SEEDS:
        for name, cfg in inputs.scenario_configs(seed, smoke=smoke):
            key = f"s{seed}/{name}"
            config = ScenarioConfig.from_dict(cfg)
            yield f"config/scenario/{key}", functools.partial(_config_forms, config)
            inputs.write_json(cfg, "config.json")
            yield f"cli/simulate/{key}", functools.partial(
                _run_cli, ["simulate", "--config", "config.json", "--matrix", "--plot"])
            solution = solve_equilibrium(config.economy)
            for env in INFO_ENVS:
                yield f"phi/choose/{key}/{env}", functools.partial(
                    choose_allocation, replace(config, info_env=env), solution)
            kw = dict(grid_resolution=config.grid_resolution,
                      suppliers_per_tier=config.suppliers_per_tier, costs=solution.costs)
            yield f"phi/risk/{key}", functools.partial(
                planner_risk_sourcing, config.economy, config.shock, config.utility, **kw)
            yield f"phi/ambiguity/{key}", functools.partial(
                planner_ambiguity_sourcing, config.economy, config.shock, config.beliefs,
                config.utility, **kw)
    for seed in LADDER_SEEDS[:1] if smoke else LADDER_SEEDS:
        for name, economy in inputs.ladder(seed, smoke=smoke):
            yield f"config/economy/s{seed}/{name}", functools.partial(_config_forms, economy)
            inputs.write_json(economy.to_dict(), "economy.json")
            yield f"cli/equilibrium/s{seed}/{name}", functools.partial(
                _run_cli, ["equilibrium", "--params", "economy.json"])
    table_a, table_b, focus = inputs.table_pair(TABLE_SEED, smoke=smoke)
    inputs.write_table_csv(table_a, "a.csv")
    inputs.write_table_csv(table_b, "b.csv")
    sector = ["--sector", inputs.TARGET_SECTOR]
    yield f"cli/fir-diff/s{TABLE_SEED}", functools.partial(
        _run_cli, ["fir", "--table", "a.csv", *sector, "--focus", ",".join(focus), "--diff", "b.csv"])
    yield f"cli/fmr-gross/s{TABLE_SEED}", functools.partial(
        _run_cli, ["fmr", "--table", "a.csv", *sector, "--measure", "gross"])


def _loader_cases(smoke: bool = False):
    for seed in SCENARIO_SEEDS[:1] if smoke else SCENARIO_SEEDS:
        table_a, table_b, _ = inputs.table_pair(seed, smoke=smoke)
        for label, table in (("a", table_a), ("b", table_b)):
            inputs.write_table_csv(table, "table.csv")
            yield f"loader/pair/s{seed}/{label}", functools.partial(load_table, "table.csv")
    tests = _load_module("test_iotables", ROOT / "tests" / "test_iotables.py")
    for name, text in tests.loader_inputs(Path(".")).items():
        with open(f"{name}.csv", "w", newline="") as fh:
            fh.write(text)
        yield f"loader/input/{name}", functools.partial(load_table, f"{name}.csv")


def _failed_run(argv: list[str]) -> dict:
    """:func:`_run_cli` into ``failed``, which must not exist before the run
    and is removed after it, plus whether the run created it."""
    if Path("failed").exists():
        raise RuntimeError("failed/ exists before a failing run")
    record = _run_cli(argv, "failed")
    record["out_exists"] = Path("failed").exists()
    shutil.rmtree("failed", ignore_errors=True)
    return record


def _failed_cases(smoke: bool = False):
    """Failing CLI runs.  The stiff economies are the ladder's of seed 0,
    which exit 4 under the damped solver; the input files go once the last
    run is done."""
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
    for name, argv in runs.items():
        yield f"cli-fail/{name}", functools.partial(_failed_run, argv)
    for path in ("fail.csv", "stiff09.json", "stiff01.json", "invalid.json"):
        os.remove(path)


def _objectives(alloc: SourcingAllocation, config: ScenarioConfig, costs) -> list:
    """An allocation, its risk and ambiguity objectives, and its value and
    survival under each shock branch."""
    econ, shock = config.economy, config.shock
    values = [alloc, risk_objective(alloc, econ, shock, config.utility, costs),
              ambiguity_objective(alloc, econ, shock, config.beliefs, config.utility, costs)]
    for draw in BRANCHES:
        values += [allocation_value(alloc, draw, econ, costs), chain_survives(alloc, draw)]
    return values


def _objective_cases():
    cases = []
    for seed in SCENARIO_SEEDS:
        for _, cfg in inputs.scenario_configs(seed):
            config = ScenarioConfig.from_dict(cfg)
            cases.append((config, solve_equilibrium(config.economy).costs))
    rng = np.random.default_rng(ALLOCATION_SEED)
    for k in range(N_ALLOCATIONS):
        n_tiers = int(rng.integers(1, 4))
        south = rng.random(n_tiers)
        corner = rng.random(n_tiers) < 0.25      # a whole tier in one location
        south[corner] = rng.integers(0, 2, size=int(corner.sum()))
        alloc = SourcingAllocation(phi=np.stack([1.0 - south, south]),
                                   M=rng.integers(1, 31, size=n_tiers))
        yield f"objective/{k:03d}", functools.partial(_objectives, alloc, *cases[k % len(cases)])


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


def overflow_draws() -> list[tuple[str, EconomyParams]]:
    """(name, economy) of ``random_economy(default_rng(s), 30, 4, 160.0, 1.0)``
    for s = 7 and 8, whose solves overflow in sweep 4's pass."""
    return [(f"overflow/s{s}", inputs.random_economy(np.random.default_rng(s), 30, 4, 160.0, 1.0))
            for s in (7, 8)]


def _solve_cases(smoke: bool = False, n_draws: int = N_CENSUS_DRAWS):
    ladders = [(f"ladder/s{seed}/{name}", economy)
               for seed in (LADDER_SEEDS[:1] if smoke else LADDER_SEEDS)
               for name, economy in inputs.ladder(seed, smoke=smoke)]
    for name, economy in ladders + census_draws(n_draws) + overflow_draws():
        yield f"solve/{name}", functools.partial(solve_equilibrium, economy)


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


def _chain_cases(n_economies: int = N_CHAIN_ECONOMIES):
    for k, (name, p, costs) in enumerate(chain_economies(n_economies)):
        rng = np.random.default_rng((CHAIN_SEED, k, 1))    # the arguments besides costs
        J, N = p.n_locations, p.n_tiers
        path, dest = rng.integers(0, J, size=N), int(rng.integers(0, J))
        weights, z, pi_jj = rng.uniform(0.5, 2.0, size=J), float(rng.uniform(0.2, 3.0)), 0.5
        prices = chains.price_indices(p, costs)
        calls = {      # each function and its arguments
            "kappa": (chains.kappa, p.theta, p.sigma),
            "composite_cost": (chains.composite_cost, costs, prices, p.gamma),
            "enumerate_paths": (chains.enumerate_paths, J, N),
            "path_scale_matrix": (chains.path_scale_matrix, p, costs),
            "chain_cost_scale": (chains.chain_cost_scale, path, dest, p, costs),
            "path_share": (chains.path_share, path, dest, p, costs),
            "path_share_matrix": (chains.path_share_matrix, p, costs),
            "price_indices": (chains.price_indices, p, costs),
            "price_index": (chains.price_index, dest, p, costs),
            "final_demand_shares": (chains.final_demand_shares, p, costs),
            "tier_participation": (chains.tier_participation, p, costs),
            "intermediate_flow_shares": (chains.intermediate_flow_shares, p, costs),
            "intermediate_flow_shares/weighted":
                (chains.intermediate_flow_shares, p, costs, weights),
            "local_chain_real_wage": (chains.local_chain_real_wage, dest, p, pi_jj),
            "chain_productivity_location": (chains.chain_productivity_location, path, p),
            "chain_productivity_cdf": (chains.chain_productivity_cdf, z, path, p),
            "chain_productivity_theta_sensitivity":
                (chains.chain_productivity_theta_sensitivity, z, path, p),
        }
        # The costs in every form the interval rule converts or refuses.
        forms = {
            "float32": costs.astype(np.float32),
            "list": costs.tolist(),
            "strided": np.repeat(costs, 2)[::2],
            "nan": np.where(np.arange(J) == 0, np.nan, costs),
            "zero": np.where(np.arange(J) == J - 1, 0.0, costs),
            "too-long": np.append(costs, 1.0),
        }
        calls.update({f"costs/{form}": (chains.price_indices, p, value)
                      for form, value in forms.items()})
        for fn, (function, *args) in calls.items():
            yield f"chain/{name}/{fn}", functools.partial(function, *args)


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


def _reliance_cases(smoke: bool = False):
    sectors = SMOKE_RELIANCE_SECTORS if smoke else RELIANCE_SECTORS
    target = inputs.TARGET_SECTOR
    both_ways = []     # (key, table, sector, focus), each under both measures
    for seed in SCENARIO_SEEDS[:1] if smoke else SCENARIO_SEEDS:
        table_a, table_b, focus = inputs.table_pair(seed, smoke=smoke)
        countries = table_a.countries
        focuses = {"all": None, "bench": focus, "reversed": focus[::-1],
                   "one": focus[0], "third": countries[::3]}
        both_ways += [(f"pair/s{seed}/{label}/{sector}/{how}", table, sector, chosen)
                      for label, table in (("a", table_a), ("b", table_b))
                      for sector in sectors for how, chosen in focuses.items()]
        if seed == 0:       # one bad argument at a time
            faults = {"measure": dict(measure="bogus"), "focus-unknown": dict(focus=["ZZZ"]),
                      "focus-repeated": dict(focus=[focus[0], focus[0]]),
                      "sector": dict(target_sector="NOPE")}
            for fault, kw in faults.items():
                for compute in (compute_fir, compute_fmr):
                    yield f"reliance/fault/{fault}/{compute.__name__[-3:]}", functools.partial(
                        compute, table_a, **{"target_sector": target, **kw})
    both_ways += [(f"bounds/{name}", table, target, None)
                  for name, table in bound_tables(6 if smoke else N_BOUND_TABLES)]
    both_ways += [(f"cycle/{name}", table, target, None) for name, table in three_cycles(smoke)]
    for key, table, sector, focus in both_ways:
        for measure in ("va", "gross"):
            for compute in (compute_fir, compute_fmr):
                yield f"reliance/{key}/{measure}/{compute.__name__[-3:]}", functools.partial(
                    compute, table, sector, focus=focus, measure=measure)


def _scenario_cases(seeds=SCENARIO_SEEDS, smoke: bool = False):
    for seed in seeds:
        for name, cfg in inputs.scenario_configs(seed, smoke=smoke):
            key = f"scenario/s{seed}/{name}"
            config = ScenarioConfig.from_dict(cfg)
            for (realization, env), ts in run_matrix(config).items():
                yield f"{key}/matrix/{realization}/{env}", lambda ts=ts: ts
            for realization in REALIZATIONS:
                yield f"{key}/run/{realization}", functools.partial(
                    run_scenario, replace(config, realization=realization))
            for n_runs in MC_RUNS:
                yield f"{key}/mc/{n_runs}", functools.partial(
                    monte_carlo_survival, config, n_runs, config.seed)
        shock, draws = inputs.regime_inputs(seed)
        for initial in (0, 1):
            yield f"scenario/s{seed}/regime/{initial}", functools.partial(
                simulate_regime, ShockParams(**shock), draws[:REGIME_DRAWS], initial=initial)


def collect(smoke: bool = False) -> dict[str, str]:
    """Record name -> digest of its :func:`_outcome`, for the whole corpus or
    its smoke subset.

    Every call runs in one temporary working directory, before its family
    writes the next input there, so that CLI runs and loads take relative
    paths and neither manifests nor messages name the directory.
    """
    families = [_config_cases(smoke), _loader_cases(smoke), _error_cases(),
                _solve_cases(smoke, N_SMOKE_CENSUS_DRAWS if smoke else N_CENSUS_DRAWS)]
    if not smoke:
        families += [_failed_cases(), _objective_cases(), _chain_cases(), _reliance_cases(),
                     _scenario_cases()]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out = {name: _digest(_outcome(call)) for name, call in itertools.chain(*families)}
        finally:
            os.chdir(cwd)
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
    parser.add_argument("--src", type=Path,
                        help="import gscsim from this directory, not from the src/ next to the tool")
    args = parser.parse_args(argv)
    if args.src and Path(chains.__file__).resolve().parents[1] != args.src.resolve():
        parser.error(f"gscsim was imported from {Path(chains.__file__).parents[1]}, "
                     f"not from --src {args.src}")
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
