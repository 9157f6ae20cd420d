"""Smoke tests of scripts/: each runs as a subprocess on the package in src/.
Also a check that the names the benchmark reads from the package resolve."""

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from wolffkit.potential import wolff_eval
from wolffkit.radial import RadialGrid

from conftest import clear_stores, power_tail_profile

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


def test_bubble_residual_decreases_with_resolution(plans_read):
    # the residual falls with resolution, and each warm map samples its
    # source 16 times in each of the span + N - 1 virtual cells of the
    # grid's plan, for every centre together
    out = run_script("bubble_residual.py", "--n", "3", "--resolutions", "8", "12")
    residuals = [float(x) for x in re.findall(r"residual (\S+)", out)]
    assert len(residuals) == 2
    assert residuals[1] < residuals[0]
    warm = re.findall(r"warm map (\S+) ms wall, (\S+) ms CPU, (\d+) samples", out)
    assert len(warm) == 2
    for npd, (wall, cpu, samples) in zip((8, 12), warm):
        grid = RadialGrid.per_decade(1e-2, 1e3, npd)
        clear_stores()
        wolff_eval(power_tail_profile(grid, 1.0, 6.0), 3, 1.0, 2.0)
        plan = plans_read[-1]
        assert float(wall) > 0.0 and float(cpu) >= 0.0 and int(samples) == 16 * (plan.span + grid.count - 1)
    clear_stores()


def test_regime_rates_shooting_side_recovers_every_predicted_rate():
    out = run_script("regime_rates.py", "--skip-picard")
    pattern = r"shooting\s+u:\s*(\S+) \(predicted (\S+)\)\s+v:\s*(\S+) \(predicted (\S+)\)"
    lines = re.findall(pattern, out)
    assert len(lines) == 3, out
    for u, u_pred, v, v_pred in lines:
        assert abs(float(u) / float(u_pred) - 1.0) <= 0.05
        assert abs(float(v) / float(v_pred) - 1.0) <= 0.05
    assert "NOT converged" not in out


def test_shoot_budget_reports_a_search_the_bubble_and_the_hardy_family():
    out = json.loads(run_script("shoot_budget.py", "--tuples", "FastFast", "--r-stop", "1e3"))
    assert out["r_stop"] == 1e3 and list(out["searches"]) == ["FastFast"]
    search = out["searches"]["FastFast"]
    # the bracket's two ends and its midpoint
    assert search["shots"]["bracket"] == 3 and search["shots"]["brent"] > 0
    assert search["steps"] > 10 * sum(search["shots"].values())
    # twelve right-hand sides per accepted step, eleven per rejected one
    assert search["evaluations"] >= 12 * search["steps"]
    assert search["integrations"] == sum(search["shots"].values())  # one per classified shot
    assert 1.0 < search["b_star"] < 1.1 and search["r_reached"] > 10.0
    for key in ("rate_u", "rate_v", "v_log_power", "residual_u", "residual_v", "seconds"):
        assert math.isfinite(search[key]), key
    assert out["bubble"]["steps"] > 0 and out["bubble"]["error"] < 1e-6
    assert len(out["hardy"]) == 5 and all(h["error"] < 1e-6 for h in out["hardy"])


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\nimport os  # kept\n\n# a comment\n'
        'def f():\n    """One line."""\n    return """a string\n    that is code"""\n'
    )
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    out = run_script("code_lines.py", str(tmp_path))
    counts = dict(line.split() for line in out.splitlines())
    assert counts == {"a.py": "4", "b.py": "2", "total": "6"}


def test_benchmark_trace_targets_resolve():
    # the traced benchmark wraps wolffkit functions by name
    # (perfbench/spans.py, TARGETS) and its worker imports names from
    # wolffkit: every such name resolves, so a deletion in wolffkit fails
    # here rather than in a --trace 1 run.  Both files are only read
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, path) for module, path, *_ in spans.TARGETS if module.startswith("wolffkit")]
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    names += [
        (node.module, alias.name)
        for node in ast.walk(worker)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wolffkit")
        for alias in node.names
    ]
    assert ("wolffkit.geometry", "ball_mass_batch") in names and ("wolffkit.potential", "_thread_count") in names
    for module, path in names:
        target = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(target, part), f"{module}.{path}"
            target = getattr(target, part)
        assert callable(target), f"{module}.{path}"
