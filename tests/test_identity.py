"""The byte-identity corpus of tools/identity.py: its smoke subset digests
the same records the same way in this process and with --src naming a copy
of the same sources, its failing CLI runs leave no output, and --compare
names what differs."""

import ast
import functools
import importlib.util
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The smoke corpus is digested twice, once by each fixture below: in this
# process, and by the tool run on a copy of src/.

@pytest.fixture(scope="module")
def smoke_in_process(tmp_path_factory):
    """The smoke digests collected in this process from a scratch working
    directory, that directory, and the working directory after the run."""
    home, scratch = os.getcwd(), tmp_path_factory.mktemp("cwd")
    os.chdir(scratch)
    try:
        return load_tool().collect(smoke=True), scratch, Path.cwd()
    finally:
        os.chdir(home)


def run_tool(cwd: Path, src_dir: Path, out: str) -> subprocess.CompletedProcess:
    """``--smoke --src src_dir --out out`` in ``cwd``, with PYTHONPATH naming
    this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(TOOL.parents[1] / "src")}
    return subprocess.run([sys.executable, str(TOOL), "--smoke", "--src", str(src_dir),
                           "--out", out], cwd=cwd, env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def smoke_of_copy(tmp_path_factory):
    """The tool's run on a copy of src/ elsewhere, and the digests it wrote."""
    home = tmp_path_factory.mktemp("copy")
    shutil.copytree(TOOL.parents[1] / "src" / "gscsim", home / "src" / "gscsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_tool(home, home / "src", "copy.json")
    return done, json.loads((home / "copy.json").read_text()) if done.returncode == 0 else None


def test_smoke_corpus_repeats(smoke_in_process, smoke_of_copy):
    first, scratch, after = smoke_in_process
    assert {name.split("/")[0] for name in first} == {
        "config", "cli", "phi", "error", "solve", "loader"}
    assert after == scratch and not any(scratch.iterdir())
    assert smoke_of_copy[1] == first


def test_src_option_digests_the_sources_it_names(tmp_path, smoke_in_process, smoke_of_copy):
    # A copy of src/ elsewhere gives the smoke digests of this checkout,
    # although PYTHONPATH names this checkout's src/ too; a directory
    # without gscsim is refused rather than digesting another tree.
    done, digests = smoke_of_copy
    assert done.returncode == 0, done.stderr
    assert digests == smoke_in_process[0]
    (tmp_path / "empty").mkdir()
    refused = run_tool(tmp_path, tmp_path / "empty", "empty.json")
    assert refused.returncode == 2 and "not from --src" in refused.stderr
    assert not (tmp_path / "empty.json").exists()


def test_range_records_cover_the_readme_table():
    tool = load_tool()
    rows = tool.RANGE_ROW.findall((tool.ROOT / "README.md").read_text())
    cases = tool.range_cases(tool.inputs.scenario_configs(0, smoke=True)[0][1])
    assert {name.split("/")[1] for name, _ in cases} == {f"{row[0]}.{row[1]}" for row in rows}
    # each field has two bounds, and each bound one value past it
    assert len(cases) == 2 * len(rows) == len({name for name, _ in cases})
    for name, call in cases:
        with pytest.raises(ValueError):
            call()


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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_a_run_uses_one_blas_thread_and_an_import_changes_nothing(tmp_path, monkeypatch):
    # The reliance records rounded differently at two BLAS threads.
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "2")
    load_tool()
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["2", "2", "2"]
    records = tmp_path / "records.json"
    records.write_text("{}")
    monkeypatch.setattr(sys, "argv", [str(TOOL), "--compare", str(records), str(records)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(TOOL), run_name="__main__")
    assert stop.value.code == 0
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["1", "1", "1"]


def records(tool, cases) -> dict:
    """Record name -> outcome of each (name, call) pair of a family, each
    call made before the family writes its next input."""
    return {name: tool._outcome(call) for name, call in cases}


def test_the_record_rule_tells_each_pair_apart():
    tool = load_tool()
    error = tool.EquilibriumConvergenceError

    def raising(err):
        def call():
            raise err
        return call

    pairs = [
        (np.zeros(3, dtype=np.float64), np.zeros(3, dtype=np.int64)),
        (np.zeros(4), np.zeros((2, 2))),
        (1.5, np.float64(1.5)),
    ]
    outcomes = [(tool._outcome(lambda a=a: a), tool._outcome(lambda b=b: b)) for a, b in pairs]
    for a, b in [(ValueError("bad"), TypeError("bad")),
                 (error("no convergence", 1e-3, 10), error("no convergence", 1e-3, 11)),
                 (error("no convergence", 1e-3, 10), error("no convergence", 2e-3, 10))]:
        outcomes.append((tool._outcome(raising(a)), tool._outcome(raising(b))))
    for first, second in outcomes:
        assert first != second and tool._digest(first) != tool._digest(second)


def test_failed_runs_leave_no_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tool = load_tool()
    # each field but the file digests is recorded as its repr
    runs = {name: {key: value if key == "files" else ast.literal_eval(value)
                   for key, value in run.items()}
            for name, run in records(tool, tool._failed_cases(smoke=True)).items()}
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
    first = records(tool, tool._objective_cases())
    second = records(tool, tool._objective_cases())
    assert len(first) == tool.N_ALLOCATIONS and first == second


def test_solve_records_repeat():
    tool = load_tool()
    first = records(tool, tool._solve_cases(smoke=True, n_draws=6))
    second = records(tool, tool._solve_cases(smoke=True, n_draws=6))
    names = [name for name, _ in tool.inputs.ladder(0, smoke=True)]
    assert sorted(first) == sorted([f"solve/ladder/s0/{name}" for name in names]
                                   + [f"solve/{name}" for name, _ in tool.census_draws(6)]
                                   + ["solve/overflow/s7", "solve/overflow/s8"])
    assert first == second
    stiff = dict(tool.inputs.ladder(0))["stiff01_j3n1"]
    message, iterations, _ = tool._outcome(functools.partial(tool.solve_equilibrium, stiff))
    assert message.startswith("EquilibriumConvergenceError: no convergence after 5000 ")
    assert iterations == repr(5000)
    for name, _ in tool.overflow_draws():
        message, iterations, _ = first[f"solve/{name}"]
        assert re.fullmatch(r"EquilibriumConvergenceError: overflow encountered in \w+ at sweep 4",
                            message), name
        assert iterations == repr(4)


def test_chain_records_repeat():
    tool = load_tool()
    first = records(tool, tool._chain_cases(n_economies=6))
    second = records(tool, tool._chain_cases(n_economies=6))
    assert first == second
    names = [name for name, _, _ in tool.chain_economies(6)]
    assert {key.split("/")[1] for key in first} == set(names)
    forms = {"float32", "list", "strided", "nan", "zero", "too-long"}
    assert {key.split("/", 3)[3] for key in first if "/costs/" in key} == forms
    name, economy, costs = tool.chain_economies(1)[0]
    J = economy.n_locations
    message = f"ValueError: costs must have shape ({J},), got ({J + 1},)"
    assert tool._outcome(lambda: tool.chains.price_indices(economy, [1.0] * (J + 1))) == message


def test_reliance_records_repeat():
    tool = load_tool()
    first = records(tool, tool._reliance_cases(smoke=True))
    second = records(tool, tool._reliance_cases(smoke=True))
    assert first == second
    kinds = {key.split("/")[1] for key in first}
    assert kinds == {"pair", "fault", "bounds", "cycle"}
    # 1 seed x 2 tables x 2 sectors x 5 focus choices, 6 bound tables and 3
    # cycles, each under 2 measures x 2 metrics, plus 4 faults x 2 metrics
    assert len(first) == (20 + 6 + 3) * 4 + 8
    for name, table in tool.bound_tables(6):
        A = table.Z / table.x[None, :]
        assert A.sum(axis=0).max() > 1.0 and A.sum(axis=1).max() > 1.0
    refused = tool._outcome(functools.partial(
        tool.compute_fir, tool.three_cycles(smoke=True)[2][1], "MFG"))
    assert refused.startswith("TableFormatError: input coefficients are not productive")


def test_loader_records_cover_every_loader_input(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tool = load_tool()
    loaded = records(tool, tool._loader_cases(smoke=True))
    tests = tool._load_module("test_iotables", TOOL.parents[1] / "tests" / "test_iotables.py")
    assert set(loaded) == {"loader/pair/s0/a", "loader/pair/s0/b"} | {
        f"loader/input/{name}" for name in tests.loader_inputs(tmp_path)}
    # a message names the file as the record loaded it, relative to the run
    assert loaded["loader/input/empty"] == (
        "TableFormatError: empty.csv: too few rows for an IO table")


def test_scenario_run_records_repeat():
    tool = load_tool()
    first = records(tool, tool._scenario_cases(seeds=(0,), smoke=True))
    second = records(tool, tool._scenario_cases(seeds=(0,), smoke=True))
    assert first == second
    # per config 6 matrix cells, 3 scripted runs and 3 Monte Carlo sizes,
    # and the regime path from both regimes
    configs = [name for name, _ in tool.inputs.scenario_configs(0, smoke=True)]
    assert len(first) == 12 * len(configs) + 2
    assert {key.split("/")[3] for key in first if key.split("/")[2] in configs} == {
        "matrix", "run", "mc"}
    assert {f"scenario/s0/regime/{initial}" for initial in (0, 1)} <= first.keys()
