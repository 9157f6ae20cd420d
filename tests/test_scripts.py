"""Smoke tests of scripts/: each runs as a subprocess on the package in src/."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_classify_sweep_passes_through_every_regime():
    rows = json.loads(run_script("classify_sweep.py", "--json"))
    assert {row["regime"] for row in rows} == {"FastFast", "Logarithmic", "Intermediate"}
    ps = [row["p"] for row in rows]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_bubble_residual_decreases_with_resolution():
    out = run_script("bubble_residual.py", "--n", "3", "--resolutions", "8", "12")
    residuals = [float(x) for x in re.findall(r"residual (\S+)", out)]
    assert len(residuals) == 2
    assert residuals[1] < residuals[0]
