"""The demos run to completion (demo 06 is left out: it takes about 8 s and its LP path is tested)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_quarter_approximation", "02_step_polynomials", "03_subconstant_onesided",
         "04_compositions_and_dnf", "05_lp_oracle_degree_tables", "07_sample_size_planner"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
