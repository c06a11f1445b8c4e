import csv
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gscsim
from gscsim import EconomyParams, WorldIOTable, write_table
from gscsim.cli import main

from conftest import (
    COST_STALL,
    ORACLE_L,
    ORACLE_T,
    ORACLE_TAU,
    ORACLE_THETA,
    ORACLE_SIGMA,
    symmetric_two_tier,
)
from test_equilibrium import STIFF09_J2N1, overflowing_economy, read_oracle_wages
from test_iotables import two_country_table


def scenario_dict(**overrides) -> dict:
    cfg = {
        "economy": symmetric_two_tier().to_dict(),
        "shock": {"eta": 0.2, "lam": 1.0, "zeta": 0.9},
        "decision_mode": "individual",
        "info_env": "risk",
        "realization": "south",
        "shock_period": 5,
        "horizon": 8,
        "suppliers_per_tier": 10,
        "grid_resolution": 101,
    }
    cfg.update(overrides)
    return cfg


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_simulate_writes_timeseries_and_manifest(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "disrupted" in capsys.readouterr().out

    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["period", "suppliers_east", "suppliers_south",
                       "suppliers_total", "chain_alive", "welfare"]
    assert len(rows) == 9
    assert rows[5] == ["5", "0", "0", "0", "false", "0.0"]   # the shock period
    assert rows[4][4] == "true"

    manifest = read_manifest(out)
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 0
    assert len(manifest["outputs"]) == 1
    entry = manifest["outputs"][0]
    digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] == (out / entry["path"]).stat().st_size


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--plot"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--plot"]) == 0
    assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
    assert (a / "chart.svg").read_bytes() == (b / "chart.svg").read_bytes()
    assert read_manifest(a)["config_hash"] == read_manifest(b)["config_hash"]


def test_simulate_matrix_outputs(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--matrix",
                 "--plot"]) == 0
    for env in ("risk", "ambiguity"):
        for realization in ("none", "east", "south"):
            name = f"individual_{realization}_{env}"
            assert (out / f"{name}.csv").exists(), name
            svg = (out / f"{name}.svg").read_text()
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
            assert "stroke-dasharray" in svg
    assert len(read_manifest(out)["outputs"]) == 12


@pytest.mark.parametrize("command, n_outputs", [
    ("simulate", 12), ("equilibrium", 1), ("fir", 2), ("fmr", 1)])
def test_manifest_lists_exactly_the_bytes_on_disk(tmp_path, command, n_outputs):
    # Three countries, each selling inputs abroad, so gross content exists too.
    Z = np.array([[0.0, 10.0, 5.0], [40.0, 0.0, 25.0], [5.0, 15.0, 0.0]])
    F = np.diag([95.0, 60.0, 45.0])
    x = Z.sum(axis=1) + F.sum(axis=1)
    table = tmp_path / "world.csv"
    write_table(WorldIOTable(countries=["ALP", "BET", "GAM"], sectors=["MFG"],
                             Z=Z, F=F, v=x - Z.sum(axis=0), x=x), table)
    reliance = ["--table", str(table), "--sector", "MFG"]
    argv = {"simulate": ["--config", write_json(tmp_path / "cfg.json", scenario_dict()),
                         "--matrix", "--plot"],
            "equilibrium": ["--params", write_json(tmp_path / "econ.json",
                                                   symmetric_two_tier().to_dict())],
            "fir": [*reliance, "--diff", str(table)],
            "fmr": [*reliance, "--measure", "gross"]}[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    entries = read_manifest(out)["outputs"]
    assert len(entries) == n_outputs
    assert sorted(e["path"] for e in entries) == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")
    for entry in entries:
        data = (out / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest(), entry["path"]
        assert entry["bytes"] == len(data), entry["path"]


def test_usage_error_leaves_the_next_run_as_a_fresh_process_writes(tmp_path, capsys):
    # main parses with one parser per process; a failed parse must not
    # change what the next call writes.
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    out = tmp_path / "out"
    argv = ["simulate", "--config", cfg, "--out", str(out), "--matrix", "--plot"]

    def written():
        manifest = read_manifest(out)
        manifest.pop("created_utc")
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        return manifest, files

    src = Path(gscsim.__file__).resolve().parents[1]
    fresh = subprocess.run([sys.executable, "-m", "gscsim.cli", *argv],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": str(src)})
    expected = written()
    assert len(expected[1]) == 12
    shutil.rmtree(out)

    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(out), "--matrix"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh.stdout
    assert written() == expected


def test_simulate_seed_override(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--seed", "42"]) == 0
    assert read_manifest(out)["seed"] == 42


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    # The config used to take any whole seed and record it, though
    # monte_carlo_survival refuses one below 0.
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "seed must lie in [0, inf), got -1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_list_seed(tmp_path, capsys):
    # A list seed used to run, write timeseries.csv and then exit 2 when
    # the manifest could not serialise the config.
    cfg = write_json(tmp_path / "cfg.json", {**scenario_dict(), "seed": [1, 2]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "seed must be a single value, got [1, 2]" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_error_exit_codes(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    assert main(["simulate", "--config", str(bad_json), "--out", str(tmp_path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    missing = tmp_path / "absent.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 3

    semantic = write_json(tmp_path / "semantic.json",
                          scenario_dict(shock={"eta": 2.0, "lam": 1.0, "zeta": 0.9}))
    assert main(["simulate", "--config", semantic, "--out", str(tmp_path)]) == 2
    assert "eta" in capsys.readouterr().err


def test_simulate_refuses_a_basket_past_float64(tmp_path, capsys):
    # sigma 1.01 and 1000 suppliers per tier lie inside the config ranges,
    # but the planner's basket, 2000 ** 101, does not fit a float64: the run
    # used to end with an OverflowError traceback and exit 1.
    economy = symmetric_two_tier(sigma=1.01).to_dict()
    cfg = write_json(tmp_path / "cfg.json", scenario_dict(
        economy=economy, decision_mode="planner", suppliers_per_tier=1000, grid_resolution=11))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the basket of 2000 suppliers at sigma = 1.01 is past float64's range\n")
    assert not out.exists()


def test_simulate_rejects_bad_utility_section(tmp_path, capsys):
    # json reads NaN and Infinity; a NaN rho used to exit 0 with every
    # supplier in East.
    for rho in (float("nan"), float("inf")):
        cfg = write_json(tmp_path / "rho.json",
                         scenario_dict(decision_mode="planner", utility={"rho": rho}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--matrix"]) == 2
        assert f"utility: rho must lie in [0, inf), got {rho}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # rho has a default, 2.0, like every optional field
    cfg = write_json(tmp_path / "norho.json", scenario_dict(utility={}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_equilibrium_matches_oracle_fixture(tmp_path):
    params = EconomyParams.one_tier(T=ORACLE_T, L=ORACLE_L, tau=ORACLE_TAU,
                                    theta=ORACLE_THETA, sigma=ORACLE_SIGMA)
    cfg = write_json(tmp_path / "econ.json", params.to_dict())
    out = tmp_path / "out"
    assert main(["equilibrium", "--params", cfg, "--out", str(out)]) == 0
    with open(out / "equilibrium.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    wages = np.array([float(r["wage"]) for r in rows])
    np.testing.assert_allclose(wages, read_oracle_wages(), atol=1e-8)
    # gamma = 1: composite costs are the wages themselves
    costs = np.array([float(r["composite_cost"]) for r in rows])
    np.testing.assert_array_equal(costs, wages)


def test_equilibrium_non_convergence_exit_code(tmp_path, capsys):
    params = EconomyParams.one_tier(T=ORACLE_T, L=ORACLE_L, tau=ORACLE_TAU,
                                    theta=ORACLE_THETA, sigma=ORACLE_SIGMA)
    cfg = write_json(tmp_path / "econ.json", params.to_dict())
    rc = main(["equilibrium", "--params", cfg, "--out", str(tmp_path),
               "--tolerance", "1e-30"])
    assert rc == 4
    assert "no convergence" in capsys.readouterr().err


@pytest.mark.parametrize("params, stderr", [
    # The damped solver spends its whole budget; the last residual is the
    # same 5000 sweeps, bit for bit.
    (STIFF09_J2N1, re.escape("error: no convergence after 5000 iterations "
                             "(residual norm 1.332e-07)\n")),
    (COST_STALL, r"error: composite cost loop stalled at log-gap \d\.\d{3}e-\d+\n"),
], ids=["stiff09_j2n1", "cost_stall"])
def test_equilibrium_failure_exits_4_and_writes_nothing(tmp_path, capsys, params, stderr):
    cfg = write_json(tmp_path / "econ.json", params)
    out = tmp_path / "out"
    assert main(["equilibrium", "--params", cfg, "--out", str(out)]) == 4
    assert re.fullmatch(stderr, capsys.readouterr().err)
    assert not (out / "equilibrium.csv").exists()


def test_equilibrium_overflow_exits_4_without_warnings(tmp_path):
    # A process of its own, with Python's default warning filters: a numpy
    # RuntimeWarning would print on stderr.
    cfg = write_json(tmp_path / "econ.json", overflowing_economy().to_dict())
    out = tmp_path / "out"
    src = Path(gscsim.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "gscsim.cli", "equilibrium",
                           "--params", cfg, "--out", str(out)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 4
    assert re.fullmatch(r"error: overflow encountered in \w+ at sweep 0\n", done.stderr)
    assert "Warning" not in done.stderr and not out.exists()


def test_equilibrium_rejects_non_finite_tolerance(tmp_path, capsys):
    cfg = write_json(tmp_path / "econ.json", symmetric_two_tier().to_dict())
    for tol in ("nan", "inf", "0"):
        rc = main(["equilibrium", "--params", cfg, "--out", str(tmp_path / "out"),
                   "--tolerance", tol])
        assert rc == 2, tol
        assert f"tolerance must lie in (0, inf), got {float(tol)}" in \
            capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_equilibrium_rejects_nan_elasticities(tmp_path, capsys):
    # A JSON NaN sigma used to exit 0 with "converged in 0 iterations".
    for key, message in (("sigma", "sigma must lie in (1, inf), got nan"),
                         ("theta", "theta must lie in (0, inf), got nan")):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({**symmetric_two_tier().to_dict(), key: float("nan")}))
        assert "NaN" in cfg.read_text()
        rc = main(["equilibrium", "--params", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2, key
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fir_command_frozen_output(tmp_path):
    table_path = tmp_path / "world.csv"
    write_table(two_country_table(), table_path)
    out = tmp_path / "out"
    assert main(["fir", "--table", str(table_path), "--sector", "MFG",
                 "--out", str(out)]) == 0
    lines = (out / "fir.csv").read_text().strip().splitlines()
    assert lines[0] == "fir,ALP,BET"
    assert lines[1] == "ALP,,40.0"
    assert lines[2] == "BET,0.0,"
    manifest = read_manifest(out)
    assert manifest["command"] == "fir"
    assert manifest["seed"] is None


def test_fmr_command_frozen_output(tmp_path):
    table_path = tmp_path / "world.csv"
    write_table(two_country_table(), table_path)
    out = tmp_path / "out"
    assert main(["fmr", "--table", str(table_path), "--sector", "MFG",
                 "--out", str(out)]) == 0
    lines = (out / "fmr.csv").read_text().strip().splitlines()
    assert lines[0] == "fmr,ALP,BET"
    assert lines[1] == "ALP,,0.0"
    assert lines[2] == "BET,44.4,"
    # Gross content is B - I; every country of this table sells inputs abroad.
    Z = np.array([[0.0, 10.0, 5.0], [40.0, 0.0, 25.0], [5.0, 15.0, 0.0]])
    F = np.diag([95.0, 60.0, 45.0])
    x = Z.sum(axis=1) + F.sum(axis=1)
    write_table(WorldIOTable(countries=["ALP", "BET", "GAM"], sectors=["MFG"],
                             Z=Z, F=F, v=x - Z.sum(axis=0), x=x), table_path)
    gross = tmp_path / "gross"
    assert main(["fmr", "--table", str(table_path), "--sector", "MFG",
                 "--measure", "gross", "--out", str(gross)]) == 0
    assert (gross / "fmr.csv").read_text().splitlines() == [
        "fmr,ALP,BET,GAM", "ALP,,50.1,31.4", "BET,53.2,,34.1", "GAM,34.0,53.7,"]
    assert read_manifest(gross)["command"] == "fmr"


def test_fir_diff_and_focus(tmp_path):
    table_path = tmp_path / "world.csv"
    write_table(two_country_table(), table_path)
    out = tmp_path / "out"
    assert main(["fir", "--table", str(table_path), "--sector", "MFG",
                 "--focus", "ALP", "--diff", str(table_path),
                 "--out", str(out)]) == 0
    lines = (out / "fir.csv").read_text().strip().splitlines()
    assert lines[0] == "fir,ALP,ROW"
    assert lines[1] == "ALP,,40.0"
    change = (out / "fir_change.csv").read_text().strip().splitlines()
    assert change[0] == "fir_change,ALP,ROW"
    assert change[1] == "ALP,,0.0"     # same table differenced against itself


def test_reliance_error_exit_codes(tmp_path, capsys):
    table_path = tmp_path / "world.csv"
    write_table(two_country_table(), table_path)
    assert main(["fir", "--table", str(table_path), "--sector", "SRV",
                 "--out", str(tmp_path)]) == 2
    assert "target sector" in capsys.readouterr().err
    assert main(["fir", "--table", str(tmp_path / "ghost.csv"),
                 "--sector", "MFG", "--out", str(tmp_path)]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("table,ALP:MFG,FD:ALP\nALP:MFG,0.0,1.0\n")
    assert main(["fir", "--table", str(bad), "--sector", "MFG",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("diff, code", [("missing", 3), ("malformed", 2)])
def test_failed_fir_diff_writes_nothing(tmp_path, capsys, diff, code):
    # Both tables are read before anything is written, so a bad --diff
    # leaves no fir.csv without its manifest.
    table_path = tmp_path / "world.csv"
    write_table(two_country_table(), table_path)
    other = tmp_path / "other.csv"
    if diff == "malformed":
        other.write_text("table,ALP:MFG,FD:ALP\nALP:MFG,0.0,1.0\n")
    out = tmp_path / "out"
    assert main(["fir", "--table", str(table_path), "--sector", "MFG",
                 "--diff", str(other), "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_simulate_non_convergence_writes_nothing(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", scenario_dict(economy=STIFF09_J2N1))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--matrix", "--plot"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "no convergence" in captured.err
    assert not out.exists()


def test_fir_rejects_non_productive_table(tmp_path, capsys):
    # Balanced within BALANCE_RTOL, but the one input coefficient is 1.0009.
    table = WorldIOTable(countries=["SOLO"], sectors=["MFG"],
                         Z=np.array([[10.009]]), F=np.array([[0.0]]),
                         v=np.array([-0.009]), x=np.array([10.0]))
    table_path = tmp_path / "world.csv"
    write_table(table, table_path)
    out = tmp_path / "out"
    assert main(["fir", "--table", str(table_path), "--sector", "MFG",
                 "--out", str(out)]) == 2
    assert "not productive" in capsys.readouterr().err
    assert not out.exists()


def test_fir_accepts_productive_table_past_the_sum_bounds(tmp_path):
    # Column and row sums reach 1.5; the spectral radius is sqrt(0.6).
    A = np.array([[0.0, 0.4], [1.5, 0.0]])
    F = np.diag([100.0, 10.0])
    x = np.linalg.solve(np.eye(2) - A, F.sum(axis=1))
    Z = A * x[None, :]
    table_path = tmp_path / "world.csv"
    write_table(WorldIOTable(countries=["ALP", "BET"], sectors=["MFG"], Z=Z, F=F,
                             v=x - Z.sum(axis=0), x=x), table_path)
    out = tmp_path / "out"
    assert main(["fir", "--table", str(table_path), "--sector", "MFG",
                 "--out", str(out)]) == 0
    lines = (out / "fir.csv").read_text().strip().splitlines()
    assert lines == ["fir,ALP,BET", "ALP,,225.0", "BET,-50.0,"]


def test_gsc_log_env(tmp_path, monkeypatch, caplog):
    # Every run applies GSC_LOG to the gscsim loggers; logging.basicConfig
    # acts once per process, so the first run's level used to stick.  The
    # root level belongs to the host application and stays as it is.
    gsc, root = logging.getLogger("gscsim"), logging.getLogger()
    gsc_level, root_level = gsc.level, root.level
    cfg = write_json(tmp_path / "cfg.json", scenario_dict())
    try:
        for name, level in (("WARNING", logging.WARNING), ("debug", logging.DEBUG),
                            ("not-a-level", logging.WARNING)):   # falls back to WARNING
            monkeypatch.setenv("GSC_LOG", name)
            caplog.clear()
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            assert gsc.getEffectiveLevel() == level, name
            assert root.level == root_level, name
            solved = [r for r in caplog.records if r.getMessage().startswith(
                "equilibrium converged")]
            assert len(solved) == (level == logging.DEBUG), name
    finally:
        gsc.setLevel(gsc_level)


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "gscsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("simulate", "equilibrium", "fir", "fmr"):
        assert word in proc.stdout
