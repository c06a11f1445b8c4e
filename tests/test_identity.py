"""The byte-identity corpus of tools/identity.py: its smoke subset digests
the same records the same way twice, its failing CLI runs leave no output,
and --compare names what differs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_corpus_repeats(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tool = load_tool()
    first = tool.collect(smoke=True)
    assert {name.split("/")[0] for name in first} == {"config", "cli", "phi", "error"}
    assert tool.collect(smoke=True) == first
    assert Path.cwd() == tmp_path and not any(tmp_path.iterdir())


def test_compare_lists_every_differing_record(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"same": "1", "changed": "2", "gone": "3"}))
    b.write_text(json.dumps({"same": "1", "changed": "4", "new": "5"}))
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["changed: 2 -> 4", "gone: 3 -> missing", "new: missing -> 5",
                   "3 of 4 records differ"]
    assert tool.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 of 3 records differ\n"


def test_failed_runs_leave_no_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = load_tool().failed_runs(smoke=True)
    assert {name: run["exit"] for name, run in runs.items()} == {
        "cli-fail/fir-diff-missing/s0": 3,
        "cli-fail/fmr-bad-sector/s0": 2,
        "cli-fail/simulate-stiff09_j2n1/s0": 4,
        "cli-fail/simulate-missing-config": 3,
        "cli-fail/simulate-invalid-json": 2,
        "cli-fail/equilibrium-stiff01_j3n1/s0": 4,
    }
    for run in runs.values():
        assert run["stdout"] == "" and run["stderr"].startswith("error: ")
        assert run["files"] == {} and not run["out_exists"]
    assert not any(tmp_path.iterdir())


def test_objective_records_repeat():
    tool = load_tool()
    first, second = {}, {}
    tool._objective_records(first)
    tool._objective_records(second)
    assert len(first) == tool.N_ALLOCATIONS and first == second


def test_solve_records_repeat():
    tool = load_tool()
    first, second = {}, {}
    tool._solve_records(first, n_draws=6, smoke=True)
    tool._solve_records(second, n_draws=6, smoke=True)
    names = [name for name, _ in tool.inputs.ladder(0, smoke=True)]
    assert sorted(first) == sorted([f"solve/ladder/s0/{name}" for name in names]
                                   + [f"solve/{name}" for name, _ in tool.census_draws(6)])
    assert first == second
    stiff = dict(tool.inputs.ladder(0))["stiff01_j3n1"]
    message, iterations, _ = tool._solve_outcome(stiff)
    assert message.startswith("EquilibriumConvergenceError: no convergence after 5000 ")
    assert iterations == 5000


def test_chain_records_repeat():
    tool = load_tool()
    first, second = {}, {}
    tool._chain_records(first, n_economies=6)
    tool._chain_records(second, n_economies=6)
    assert first == second
    names = [name for name, _, _ in tool.chain_economies(6)]
    assert {key.split("/")[1] for key in first} == set(names)
    forms = {"float32", "list", "strided", "nan", "zero", "too-long"}
    assert {key.split("/", 3)[3] for key in first if "/costs/" in key} == forms
    name, economy, costs = tool.chain_economies(1)[0]
    J = economy.n_locations
    message = f"ValueError: costs must be strictly positive and finite with shape ({J},)"
    assert tool._outcome(lambda: tool.chains.price_indices(economy, [1.0] * (J + 1))) == message


def test_reliance_records_repeat():
    tool = load_tool()
    first, second = {}, {}
    tool._reliance_records(first, smoke=True)
    tool._reliance_records(second, smoke=True)
    assert first == second
    kinds = {key.split("/")[1] for key in first}
    assert kinds == {"pair", "fault", "bounds", "cycle"}
    # 1 seed x 2 tables x 2 sectors x 5 focus choices, 6 bound tables and 3
    # cycles, each under 2 measures x 2 metrics, plus 4 faults x 2 metrics
    assert len(first) == (20 + 6 + 3) * 4 + 8
    for name, table in tool.bound_tables(6):
        A = table.Z / table.x[None, :]
        assert A.sum(axis=0).max() > 1.0 and A.sum(axis=1).max() > 1.0
    refused = tool._reliance_outcome(tool.compute_fir, tool.three_cycles(smoke=True)[2][1], "MFG")
    assert refused.startswith("TableFormatError: input coefficients are not productive")


def test_scenario_run_records_repeat():
    tool = load_tool()
    first, second = {}, {}
    tool._scenario_run_records(first, seeds=(0,), smoke=True)
    tool._scenario_run_records(second, seeds=(0,), smoke=True)
    assert first == second
    # per config 6 matrix cells, 3 scripted runs and 3 Monte Carlo sizes,
    # and the regime path from both regimes
    configs = [name for name, _ in tool.inputs.scenario_configs(0, smoke=True)]
    assert len(first) == 12 * len(configs) + 2
    assert {key.split("/")[3] for key in first if key.split("/")[2] in configs} == {
        "matrix", "run", "mc"}
    assert {f"scenario/s0/regime/{initial}" for initial in (0, 1)} <= first.keys()
