import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from wolffkit import geometry
from wolffkit.radial import RadialFunction, RadialGrid


@pytest.fixture
def unit_indicator():
    """Indicator of the unit ball: exact via head model + hard tail cutoff."""
    grid = RadialGrid.per_decade(1e-2, 1.0, 24)
    return RadialFunction(
        grid, np.ones(grid.count), head_exponent=0.0, tail_exponent=math.inf
    )


def indicator_of_ball(radius: float) -> RadialFunction:
    grid = RadialGrid.per_decade(radius / 100.0, radius, 24)
    return RadialFunction(
        grid, np.ones(grid.count), head_exponent=0.0, tail_exponent=math.inf
    )


def power_tail_profile(grid: RadialGrid, scale: float, m: float) -> RadialFunction:
    """Smooth bump (1 + (r/scale)^2)^(-m/2) with the matching declared tail."""
    vals = (1.0 + (grid.points / scale) ** 2) ** (-m / 2.0)
    return RadialFunction(grid, vals, head_exponent=0.0, tail_exponent=m)


def clear_stores():
    """Empty geometry's reference plans and kept ball masses."""
    geometry._plans.clear()
    geometry._masses.clear()


@pytest.fixture
def cap_calls(monkeypatch):
    """Empty geometry's stores and count cap_fraction calls."""
    clear_stores()
    calls = []
    cap_fraction = geometry.cap_fraction

    def counting(kernel, rho, t, r):
        calls.append(np.size(r))
        return cap_fraction(kernel, rho, t, r)

    monkeypatch.setattr(geometry, "cap_fraction", counting)
    yield calls
    clear_stores()


# the benchmark's oracles (Newton's shell theorem, the 2F1 spherical mean and
# the profile evaluator Profile), loaded by path so that one reference
# implementation serves both the benchmark and the tests
ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


@pytest.fixture(scope="session")
def oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
