"""The demos run to completion (demo 06 is left out: it takes about 8 s and its LP path is tested).

Demos 01-04 and 07 print only exact or closed-form values, so their stdout is pinned by
sha256; 05 prints LP-solved epsilons and is only run.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_quarter_approximation", "02_step_polynomials", "03_subconstant_onesided",
         "04_compositions_and_dnf", "05_lp_oracle_degree_tables", "07_sample_size_planner"]
STDOUT_SHA256 = {
    "01_quarter_approximation": "fd90886c198d809b416fee1e056c043c88dfa360e2fc48ed67b090ac9baccdb5",
    "02_step_polynomials": "04ce57cdf6404fec7d3c8c12a4fcc958f9eaca031ac5aa0c48567c91adaa1320",
    "03_subconstant_onesided": "e58935f6a6ea8135781d68a174e2747f448b392cb34e042592da008cc4dc1baf",
    "04_compositions_and_dnf": "c5f304b3ed1fe2e2c32021931cc21fad2c82a03c37856acdbcdd5d219a88cb7c",
    "07_sample_size_planner": "9199e4e1da4fa1998f8f86f139b0ac201cbab7282f7e25272506125d7843c7b0",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[name], proc.stdout
