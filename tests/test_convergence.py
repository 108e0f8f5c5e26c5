"""Tests for the `convergence` experiment's residuals and one-copy moments.

The runner computes sigma_z on |+> from exact algebra, with no numpy. Its
residuals are checked against an exact 1/sqrt(N) in decimal arithmetic, the
library's `average_operator_residual`, and the full product-space oracle
`brute_force_average`; its one-copy moments against `decompose`.
"""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tsvf_sim.ensemble import EnsembleSpec, average_operator_residual, brute_force_average, decompose
from tsvf_sim.experiments import EXPERIMENTS, _sigma_z_moments, resolve_params
from tsvf_sim.hilbert import SIGMA_Z, StateVector, random_state

PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))


def _run(sizes):
    exp = EXPERIMENTS["convergence"]
    result = exp.runner(resolve_params(exp, {"Ns": ",".join(map(str, sizes))}), 0)
    assert result.columns[0] == list(sizes)
    return result.columns[1], result.summary


def _sizes():
    """Powers of ten up to 10^20, sizes next to powers of two, and random sizes."""
    rng = random.Random("convergence-sizes")
    sizes = {10 ** k for k in range(21)}
    sizes |= {2 ** k + d for k in (53, 54, 63, 64) for d in (-1, 1)}
    sizes |= {rng.randint(1, 10 ** rng.randint(1, 20)) for _ in range(300)}
    return sorted(sizes)


def test_residual_is_within_2_ulp_of_the_exact_one_over_sqrt_n():
    sizes = _sizes()
    residuals, summary = _run(sizes)
    assert summary["abar"] == 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for n, residual in zip(sizes, residuals):
            exact = 1 / Decimal(n).sqrt()
            ulp = Decimal(math.ulp(float(exact)))
            assert abs(Decimal(residual) - exact) <= 2 * ulp, n


def test_residual_matches_average_operator_residual():
    sizes = _sizes()
    residuals, _ = _run(sizes)
    for n, residual in zip(sizes, residuals):
        abar, reference = average_operator_residual(SIGMA_Z, EnsembleSpec(((PLUS, n),)))
        assert abs(abar) < 1e-16
        assert residual == pytest.approx(reference, rel=1e-15, abs=0.0), n


def test_residual_matches_the_product_space_oracle():
    sizes = list(range(1, 15))
    residuals, summary = _run(sizes)
    assert summary["abar"] == 0.0
    for n, residual in zip(sizes, residuals):
        abar, reference = brute_force_average(SIGMA_Z, EnsembleSpec(((PLUS, n),)))
        assert abs(abar) <= 1e-12
        assert abs(residual - reference) <= 1e-12, n


def test_sigma_z_moments_match_decompose():
    # On |+> abar is 0, where delta^2 = 1 - abar^2 cannot be told from other
    # signs of abar^2; states with abar far from 0 can.
    rng = np.random.default_rng(7)
    states = [random_state(2, rng) for _ in range(200)]
    states += [StateVector(np.array([math.cos(t), math.sin(t)], dtype=complex))
               for t in np.linspace(0.0, math.pi / 2, 17)]
    for psi in [PLUS, *states]:
        abar, delta = _sigma_z_moments(*psi.amps)
        dec = decompose(SIGMA_Z, psi)
        assert abs(abar - dec.abar) <= 1e-12
        assert abs(delta - dec.delta) <= 1e-7
        assert abs(delta ** 2 - dec.delta ** 2) <= 1e-12
    assert _sigma_z_moments(*PLUS.amps) == (0.0, 1.0)
