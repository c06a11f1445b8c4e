"""Smoke test of the benchmark harness: every workload at tiny size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(args, cwd=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd or BENCH.parent,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", str(trace), "--smoke", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    run_dir = tmp_path / f"{workload}-seed3-trace{trace}"
    assert (run_dir / "report.json").is_file()
    assert (run_dir / "spans.json").is_file() == bool(trace)
    assert not (run_dir / "work").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(["--workload", "eq_ladder", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
