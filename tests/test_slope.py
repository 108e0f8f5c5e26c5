"""Tests for the least-squares slope behind `robustness` and `convergence`.

The slope is checked against the exact rational slope of the same floats,
and against the `np.polyfit` fit the two experiments used before, on their
golden configurations and on configurations like the benchmark's sweep.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tsvf_sim.experiments import EXPERIMENTS, _slope, resolve_params
from helpers import result_columns


def _exact_slope(xs, ys):
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return sxy / sum((x - x_mean) ** 2 for x in xs)


def _sizes(rng, kind, k):
    """k record sizes up to 1e18: spread out, within a few ulp, or of mixed magnitude."""
    if kind == "spread":
        return rng.sample(range(1, 10 ** 18), k)
    if kind == "clustered":
        base = rng.randint(10 ** 17, 10 ** 18)
        return [base + rng.randint(0, 2000) for _ in range(k)]
    return [rng.randint(1, 10 ** rng.randint(1, 18)) for _ in range(k)]


@pytest.mark.parametrize("kind", ["spread", "clustered", "mixed"])
def test_slope_matches_the_exact_slope(kind):
    rng = random.Random(f"slope:{kind}")
    checked = 0
    for _ in range(1000):
        xs = [float(n) for n in _sizes(rng, kind, rng.randint(2, 6))]
        if len(set(xs)) < 2:
            continue
        # Robustness-like: a line through the record sizes, off it by up to 1e-3.
        rate, offset = rng.uniform(0.01, 1.4), rng.uniform(-50.0, 50.0)
        ys = [offset + rate * x * (1.0 + rng.uniform(-1e-3, 1e-3)) for x in xs]
        exact = _exact_slope(xs, ys)
        assert abs(Fraction(_slope(xs, ys)) - exact) <= 1e-15 * abs(exact), (xs, ys)
        checked += 1
    assert checked >= 900


def test_slope_of_a_line_is_exact_and_needs_two_distinct_xs():
    assert _slope([1.0, 2.0, 3.0], [5.0, 3.0, 1.0]) == -2.0
    assert _slope([1e18, 1e18 + 128.0], [0.0, 1.0]) == 1.0 / 128.0
    with pytest.raises(ZeroDivisionError):
        _slope([1e20, float(10 ** 20 + 1)], [0.0, 1.0])


def _polyfit_slope(name, result):
    columns = result_columns(result)
    if name == "robustness":
        xs, ys = np.array(columns[0], dtype=float), columns[2]
        fitted = result.summary["fitted_log_slope"]
    else:
        xs = np.log10([float(n) for n in columns[0]])
        ys = np.log10(columns[1])
        fitted = result.summary["slope"]
    return fitted, float(np.polyfit(xs, ys, 1)[0])


def _sweep_like(rng, name):
    """Parameters drawn as perfbench's sweep draws them."""
    if name == "convergence":
        return {"Ns": ",".join(map(str, sorted(rng.sample(range(10, 10 ** 7),
                                                          rng.randint(3, 6)))))}
    sizes = sorted(rng.sample(range(13, 400), rng.randint(3, 6)))
    return {
        "c": repr(round(rng.uniform(0.6, 0.95), 6)),
        "n": str(rng.randint(1, 12)),
        "gamma1": repr(round(rng.uniform(0.8, 1.0), 6)),
        "gamma2": repr(round(rng.uniform(0.5, 0.95), 6)),
        "env_sizes": ",".join(map(str, sizes)),
    }


CONFIGS = [("robustness", {}), ("convergence", {})] + [
    (name, _sweep_like(random.Random(f"sweep-like:{name}:{i}"), name))
    for name in ("robustness", "convergence") for i in range(20)
]


@pytest.mark.parametrize(("name", "overrides"), CONFIGS)
def test_slope_stays_within_1e_12_of_polyfit(name, overrides):
    exp = EXPERIMENTS[name]
    fitted, polyfit = _polyfit_slope(name, exp.runner(resolve_params(exp, overrides), 0))
    assert math.isclose(fitted, polyfit, rel_tol=1e-12, abs_tol=0.0)
