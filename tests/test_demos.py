"""Each script under demos/ runs as a user would run it: in its own process
from the repository root, with gscsim importable from src/, exiting 0 and
writing nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    args = ["--out", str(tmp_path / "matrix_out")] if demo.name == "scenario_matrix.py" else []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo), *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
    if args:
        assert any((tmp_path / "matrix_out").iterdir())
