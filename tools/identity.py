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
  :func:`_malformed` lists.

``--smoke`` keeps seed 0 and the benchmark's smoke sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from gscsim import (  # noqa: E402
    EconomyParams,
    ScenarioConfig,
    choose_allocation,
    planner_ambiguity_sourcing,
    planner_risk_sourcing,
    solve_equilibrium,
)
from gscsim.cli import main as cli_main  # noqa: E402
from gscsim.scenarios import INFO_ENVS  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

SCENARIO_SEEDS = (0, 1, 2, 3)
LADDER_SEEDS = (0, 1)
TABLE_SEED = 0


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


def _run_cli(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and output digests of one CLI run in ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([*argv, "--out", "out"])
    files = {}
    for path in sorted(Path("out").glob("*")):
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
        finally:
            os.chdir(cwd)
    _error_records(out)
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
