"""Tests for deterministic operators and ensemble-averaged observables."""

import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tsvf_sim import spins
from tsvf_sim import (
    SIGMA_Z,
    EnsembleSpec,
    HermitianOperator,
    InvariantError,
    ReadoutDensity,
    RobustnessModel,
    StateVector,
    TwoState,
    average_operator_residual,
    average_spin_commutator,
    brute_force_average,
    brute_force_spin_commutator,
    classical_threshold,
    commute_on_state,
    decompose,
    deterministic_basis,
    inner,
    projector,
    weak_estimate,
)
from tsvf_sim.cli import main as cli_main
from tsvf_sim.twotime import ensemble_average
from helpers import SIGMA_X, SIGMA_Y, basis_state, random_hermitian, random_state

KET0 = basis_state(2, 0)
PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
MINUS = StateVector(np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0))


def test_is_deterministic_eigenstate():
    assert decompose(SIGMA_Z, KET0).delta <= 1e-10


def test_is_deterministic_rejects_superposition():
    assert decompose(SIGMA_X, KET0).delta > 1e-10


def test_projector_is_deterministic_for_its_state():
    rng = np.random.default_rng(61)
    psi = random_state(5, rng)
    assert decompose(projector(psi), psi).delta <= 1e-10


@pytest.mark.parametrize("dim,count", [(2, 2), (3, 5), (4, 10)])
def test_deterministic_basis_count(dim, count):
    rng = np.random.default_rng(dim)
    ops = deterministic_basis(random_state(dim, rng))
    assert len(ops) == count == (dim - 1) ** 2 + 1


def test_deterministic_basis_members_are_deterministic():
    rng = np.random.default_rng(62)
    psi = random_state(4, rng)
    for op in deterministic_basis(psi):
        assert decompose(op, psi).delta <= 1e-10


def test_deterministic_basis_linearly_independent():
    rng = np.random.default_rng(63)
    psi = random_state(3, rng)
    ops = deterministic_basis(psi)
    stacked = np.stack(
        [np.concatenate([op.entries.real.ravel(), op.entries.imag.ravel()]) for op in ops]
    )
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == len(ops)


def test_deterministic_basis_pairwise_commute_on_state():
    rng = np.random.default_rng(64)
    psi = random_state(4, rng)
    ops = deterministic_basis(psi)
    for i, a in enumerate(ops):
        for b in ops[i:]:
            assert commute_on_state(a, b, psi) <= 1e-10


def test_deterministic_basis_closed_under_real_combinations():
    rng = np.random.default_rng(65)
    psi = random_state(3, rng)
    ops = deterministic_basis(psi)
    for _ in range(50):
        coeffs = rng.uniform(-2.0, 2.0, size=len(ops))
        combined = sum(c * op.entries for c, op in zip(coeffs, ops))
        delta = decompose(type(ops[0])(combined), psi).delta
        assert delta <= 1e-9


def test_commute_on_state_pauli_pair():
    assert np.isclose(commute_on_state(SIGMA_X, SIGMA_Y, KET0), 2.0, atol=1e-12)


def test_commute_on_state_same_operator_is_zero():
    rng = np.random.default_rng(66)
    op = random_hermitian(3, rng)
    psi = random_state(3, rng)
    assert commute_on_state(op, op, psi) == 0.0


def test_decompose_sigma_z_on_plus():
    dec = decompose(SIGMA_Z, PLUS)
    assert np.isclose(dec.abar, 0.0, atol=1e-12)
    assert np.isclose(dec.delta, 1.0, atol=1e-12)
    assert np.isclose(abs(inner(dec.perp, MINUS)), 1.0, atol=1e-10)


def test_decompose_eigenstate_has_no_perp():
    dec = decompose(SIGMA_Z, KET0)
    assert np.isclose(dec.abar, 1.0, atol=1e-12)
    assert dec.delta <= 1e-12
    assert dec.perp is None


def test_decompose_reconstruction():
    rng = np.random.default_rng(67)
    for _ in range(25):
        op = random_hermitian(5, rng)
        psi = random_state(5, rng)
        dec = decompose(op, psi)
        rebuilt = dec.abar * psi.amps
        if dec.perp is not None:
            rebuilt = rebuilt + dec.delta * dec.perp.amps
            assert abs(inner(psi, dec.perp)) <= 1e-10
        assert np.allclose(op.apply(psi), rebuilt, atol=1e-10)


def test_residual_identical_copies():
    spec = EnsembleSpec(((PLUS, 100),))
    abar, residual = average_operator_residual(SIGMA_Z, spec)
    assert np.isclose(abar, 0.0, atol=1e-12)
    assert np.isclose(residual, 0.1, atol=1e-12)


def test_residual_eigenstate_group_is_zero():
    spec = EnsembleSpec(((KET0, 50),))
    _, residual = average_operator_residual(SIGMA_Z, spec)
    assert residual <= 1e-12


def test_residual_two_group_mean():
    spec = EnsembleSpec(((KET0, 300), (MINUS, 100)))
    abar, residual = average_operator_residual(SIGMA_Z, spec)
    assert np.isclose(abar, 0.75, atol=1e-12)
    assert np.isclose(residual, math.sqrt(100.0) / 400.0, atol=1e-12)


def test_residual_scaling_slope():
    sizes = [100, 1000, 10_000, 100_000]
    residuals = [
        average_operator_residual(SIGMA_Z, EnsembleSpec(((PLUS, n),)))[1] for n in sizes
    ]
    slope = np.polyfit(np.log10(sizes), np.log10(residuals), 1)[0]
    assert abs(slope - (-0.5)) < 0.01


def test_brute_force_average_four_copies():
    spec = EnsembleSpec(((PLUS, 4),))
    abar, residual = brute_force_average(SIGMA_Z, spec)
    assert np.isclose(abar, 0.0, atol=1e-10)
    assert np.isclose(residual, 0.5, atol=1e-10)


def test_brute_force_average_single_copy_residual_is_delta():
    rng = np.random.default_rng(68)
    op = random_hermitian(3, rng)
    psi = random_state(3, rng)
    _, residual = brute_force_average(op, EnsembleSpec(((psi, 1),)))
    assert np.isclose(residual, decompose(op, psi).delta, atol=1e-10)


def test_brute_force_matches_closed_form():
    rng = np.random.default_rng(69)
    for _ in range(10):
        op = random_hermitian(3, rng)
        spec = EnsembleSpec(((random_state(3, rng), 2), (random_state(3, rng), 3)))
        closed = average_operator_residual(op, spec)
        brute = brute_force_average(op, spec)
        assert np.isclose(closed[0], brute[0], atol=1e-10)
        assert np.isclose(closed[1], brute[1], atol=1e-10)


def test_brute_force_two_group_mean():
    spec = EnsembleSpec(((KET0, 3), (MINUS, 1)))
    abar, residual = brute_force_average(SIGMA_Z, spec)
    closed_abar, closed_residual = average_operator_residual(SIGMA_Z, spec)
    assert np.isclose(abar, closed_abar, atol=1e-10)
    assert np.isclose(residual, closed_residual, atol=1e-10)
    assert np.isclose(abar, 0.75, atol=1e-10)


def test_brute_force_oracle_bound():
    with pytest.raises(InvariantError, match=r"product dimension 2\^15 exceeds 2\^14"):
        brute_force_average(SIGMA_Z, EnsembleSpec(((PLUS, 15),)))


def test_brute_force_oracle_rejects_huge_ensemble_at_once():
    start = time.perf_counter()
    with pytest.raises(InvariantError, match=r"product dimension 2\^1000000000 exceeds 2\^14"):
        brute_force_average(SIGMA_Z, EnsembleSpec(((PLUS, 10 ** 9),)))
    assert time.perf_counter() - start < 1.0


def _dense_sum_over_sites(op_entries, dim, n):
    """sum_i I (x) ... (x) A (x) ... (x) I over n sites, as a dense np.kron matrix."""
    total = np.zeros((dim ** n, dim ** n), dtype=complex)
    for site in range(n):
        term = np.ones((1, 1))
        for k in range(n):
            term = np.kron(term, op_entries if k == site else np.eye(dim))
        total += term
    return total


@pytest.mark.parametrize(
    "dim, n, groups",
    [(2, n, g) for n in range(1, 9) for g in (1, 2) if g <= n]
    + [(3, n, g) for n in range(1, 7) for g in (1, 2) if g <= n],
)
def test_brute_force_average_matches_the_dense_sum_over_sites(dim, n, groups):
    rng = np.random.default_rng(100 * dim + 10 * n + groups)
    op = random_hermitian(dim, rng)
    counts = (n,) if groups == 1 else (n - n // 2, n // 2)
    spec = EnsembleSpec(tuple((random_state(dim, rng), count) for count in counts))
    full = np.ones(1, dtype=complex)
    for state, count in spec.groups:
        for _ in range(count):
            full = np.kron(full, state.amps)
    averaged = _dense_sum_over_sites(op.entries, dim, n) @ full / n
    abar = float(np.real(np.vdot(full, averaged)))
    residual = float(np.linalg.norm(averaged - abar * full))
    brute = brute_force_average(op, spec)
    assert brute[0] == pytest.approx(abar, rel=0.0, abs=1e-12)
    assert brute[1] == pytest.approx(residual, rel=0.0, abs=1e-12)


def test_spin_commutator_closed_form_values():
    assert np.isclose(average_spin_commutator(1), 0.5, atol=1e-15)
    assert np.isclose(average_spin_commutator(4), 0.125, atol=1e-15)
    assert np.isclose(average_spin_commutator(10 ** 6), 5e-7, atol=1e-20)


def _dense_spin_reference(n):
    """Scale and identity error from kron-built dense 2^N x 2^N spin averages."""
    dim = 2 ** n
    components = []
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        total = np.zeros((dim, dim), dtype=complex)
        for site in range(n):
            total += np.kron(
                np.kron(np.eye(2 ** site), 0.5 * sigma.entries), np.eye(2 ** (n - site - 1))
            )
        components.append(total / n)
    sx, sy, sz = components
    identity_error = float(np.max(np.abs(sx @ sy - sy @ sx - 1j * sz / n)))
    return float(np.max(np.abs(np.linalg.eigvalsh(sz)))) / n, identity_error


def test_spin_commutator_brute_force_matches_identity():
    for n in range(1, 9):
        scale, identity_error = brute_force_spin_commutator(n)
        dense_scale, dense_error = _dense_spin_reference(n)
        assert scale == dense_scale
        assert identity_error <= 1e-12 and dense_error <= 1e-12
        assert np.isclose(scale, 1.0 / (2.0 * n), atol=1e-10)


def _site_matrix(site):
    """The 2 x 2 matrix of a spins one-site table: |bit> -> signs[bit] |bit ^ flip>."""
    flip, signs = site
    matrix = np.zeros((2, 2), dtype=int)
    for bit in (0, 1):
        matrix[bit ^ flip, bit] = signs[bit]
    return matrix


def test_spin_site_tables_equal_pauli_matrices():
    assert np.array_equal(_site_matrix(spins.X_SITE), SIGMA_X.entries)
    assert np.array_equal(_site_matrix(spins.Y2_SITE), -1j * SIGMA_Y.entries)
    assert np.array_equal(_site_matrix(spins.Z_SITE), SIGMA_Z.entries)


def _column_loop_reference(n):
    """The spin oracle's result, one basis column at a time in a dict of ints.

    For every basis state b, applies each site-product term of
    X'Y'' - Y''X' - 2Z' to b alone, as a signed bit flip, and keeps max|entry|
    over the column; reads the site tables from `spins` when called.
    """
    def site_sum(site):
        flip, (sign0, sign1) = site
        return [(flip << i, 1 << i, sign0, sign1) for i in range(n)]

    x_sum, y_sum, z_sum = map(site_sum, (spins.X_SITE, spins.Y2_SITE, spins.Z_SITE))
    z_max = worst = 0
    for state in range(2 ** n):
        column = {}
        get = column.get
        # X'Y''|b> applies Y'' first; Y''X'|b> applies X' first and is subtracted.
        for first, second, scale in ((y_sum, x_sum, 1), (x_sum, y_sum, -1)):
            for flip, bit, sign0, sign1 in first:
                middle = state ^ flip
                amp = scale * (sign1 if state & bit else sign0)
                for flip2, bit2, sign2_0, sign2_1 in second:
                    key = middle ^ flip2
                    column[key] = get(key, 0) + (sign2_1 if middle & bit2 else sign2_0) * amp
        z = 0
        for flip, bit, sign0, sign1 in z_sum:
            sign = sign1 if state & bit else sign0
            key = state ^ flip
            column[key] = get(key, 0) - 2 * sign
            z += sign
        z_max = max(z_max, abs(z))
        worst = max(worst, max(map(abs, column.values())))
    return z_max / (2 * n) / n, worst / (4 * n * n)


def test_spin_commutator_equals_column_loop():
    for n in range(1, 11):
        assert brute_force_spin_commutator(n) == _column_loop_reference(n)


@pytest.mark.parametrize(("name", "table"), [
    ("Y2_SITE", (1, (1, 1))),
    ("Z_SITE", (0, (1, 1))),
    ("X_SITE", (1, (1, -1))),
    ("Y2_SITE", (0, (1, -1))),
])
def test_spin_commutator_equals_column_loop_on_broken_tables(monkeypatch, name, table):
    # A wrong site table breaks the identity, so its entries are read back
    # from the lanes instead of cancelling to an all-zero sum.
    monkeypatch.setattr(spins, name, table)
    for n in range(1, 9):
        expected = _column_loop_reference(n)
        assert expected[1] > 0.0
        assert brute_force_spin_commutator(n) == expected


def test_commutator_run_checks_every_spin_count_up_to_the_limit(tmp_path):
    out = tmp_path / "k.csv"
    assert cli_main(["run", "--experiment", "commutator", "--param", "brute_max=12",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    brute = [row for row in rows if row[1] == "brute"]
    assert [int(row[0]) for row in brute] == list(range(1, 13))
    for n, _, scale, identity_error in brute:
        assert float(identity_error) == 0.0
        assert float(scale) == 1 / (2 * int(n))


def test_spin_commutator_oracle_bounds():
    with pytest.raises(InvariantError):
        brute_force_spin_commutator(0)
    with pytest.raises(InvariantError, match="spin oracle is limited to 12 spins"):
        brute_force_spin_commutator(13)


def _model(env_size=12, n_collapsed=0):
    return RobustnessModel(alpha=1.0, beta=0.0, env_size=env_size, overlap=0.9,
                           n_collapsed=n_collapsed, gamma1=0.9, gamma2=0.9)


# Each count argument of the library: a call that passes it n and gives what
# the library keeps of n, the name in its message, and its least value.
COUNT_ARGUMENTS = {
    "spins-closed-form": (average_spin_commutator, "the spin count", 1),
    "spins-oracle": (brute_force_spin_commutator, "the spin count", 1),
    "env_size": (lambda n: _model(env_size=n).env_size, "env_size", 1),
    "n_collapsed": (lambda n: _model(n_collapsed=n).n_collapsed, "n_collapsed", 0),
    "threshold-n_collapsed": (lambda n: classical_threshold(n, 0.9, 0.9, 0.9),
                              "n_collapsed", 0),
    "group-count": (lambda n: EnsembleSpec(((PLUS, n),)).groups[0][1], "group count", 1),
    "trials": (lambda n: weak_estimate(TwoState(PLUS, PLUS), SIGMA_Z, 0.1, 1.0, n,
                                       np.random.default_rng(0)).acceptance_rate, "trials", 1),
    "sample-size": (lambda n: ReadoutDensity(means=[0.0], weights=[1.0], sigma=1.0)
                    .sample(np.random.default_rng(0), n).size, "sample size", 0),
}
# The largest value of each count argument that has one: rng.binomial takes a
# C long, and np.empty sizes at most this many float64 readings.
COUNT_MOST = {"trials": np.iinfo("l").max, "sample-size": np.iinfo(np.intp).max // 8}
BELOW_LEAST = object()  # the argument's least value minus 1
NOT_COUNTS = {"2.5": 2.5, "1e+308": 1e308, "2.0": 2.0, "True": True, "numpy-True": np.True_,
              "4": "4", "None": None, "-3": -3, "least-minus-1": BELOW_LEAST}
COUNT_ROWS = {f"{argument}-{label}": (argument, n)
              for argument in COUNT_ARGUMENTS for label, n in NOT_COUNTS.items()}
COUNT_ROWS.update({f"{argument}-10**20": (argument, 10 ** 20) for argument in COUNT_MOST})


@pytest.mark.parametrize(("argument", "n"), COUNT_ROWS.values(), ids=list(COUNT_ROWS))
def test_every_count_argument_needs_an_int(argument, n):
    call, name, least = COUNT_ARGUMENTS[argument]
    n = least - 1 if n is BELOW_LEAST else n
    bounds = f"at least {least}" + (f" and at most {COUNT_MOST[argument]}"
                                     if argument in COUNT_MOST else "")
    with pytest.raises(InvariantError, match=f"^{name} must be an int of {bounds}, got"):
        call(n)


def test_the_most_trials_are_refused_by_the_sample_size_bound():
    # Nearly all 2^63 - 1 trials pass, and numpy cannot size an array of that many readings.
    with pytest.raises(InvariantError, match="^sample size must be an int of at least 0 and at"):
        weak_estimate(TwoState(PLUS, PLUS), SIGMA_Z, 0.1, 1.0, np.iinfo("l").max,
                      np.random.default_rng(0))


@pytest.mark.parametrize("argument", COUNT_ARGUMENTS)
def test_a_numpy_int_count_is_kept_as_a_python_int(argument):
    call, _, least = COUNT_ARGUMENTS[argument]
    kept, expected = call(np.int64(least + 2)), call(least + 2)
    assert (kept, type(kept)) == (expected, type(expected))


def test_spin_commutator_memory_stays_below_dense_matrices():
    # Three dense 2^11 x 2^11 complex matrices and their products peak above
    # 450 MiB; the integer oracle holds one 4 KiB lane vector per row offset,
    # a peak of about 0.4 MiB.
    tracemalloc.start()
    try:
        brute_force_spin_commutator(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


def test_ensemble_spec_validates_counts():
    with pytest.raises(InvariantError):
        EnsembleSpec(((PLUS, 0),))
    # The closed form divides by the total count as a float: it must fit one.
    for groups in (((PLUS, 10 ** 309),), ((PLUS, 10 ** 308), (PLUS, 10 ** 308))):
        with pytest.raises(InvariantError, match="the total group count must be finite"):
            average_operator_residual(SIGMA_Z, EnsembleSpec(groups))
    largest = int(sys.float_info.max)
    abar, residual = average_operator_residual(SIGMA_Z, EnsembleSpec(((PLUS, largest),)))
    assert abs(abar) < 1e-15 and residual == pytest.approx(1 / math.sqrt(largest), rel=1e-15)


def _exact_average(moments) -> tuple[float, float]:
    """ensemble_average's mean and residual in exact rationals, each rounded once."""
    total = sum(count for count, _, _ in moments)
    mean = sum(count * Fraction(abar) for count, abar, _ in moments) / total
    square = sum(count * Fraction(delta) ** 2 for count, _, delta in moments) / total ** 2
    scale = 2 ** 2000  # the root keeps hundreds of bits for any square above 1e-600
    root = Fraction(math.isqrt(square.numerator * scale ** 2 // square.denominator), scale)
    return float(mean), float(root)


def _plus_moments(diagonal, count) -> list:
    """One group of `count` copies of |+>, with the moments of diag(diagonal) on it."""
    dec = decompose(HermitianOperator(np.diag(diagonal)), PLUS)
    return [(count, dec.abar, dec.delta)]


@pytest.mark.parametrize("moments", [
    # Residual about 3.2e145: sum N delta^2 = 1e309 overflows.
    _plus_moments([1e150, -1e150], 10 ** 9),
    # Mean 5e149 and residual 0.5: both sums overflow.
    _plus_moments([1e150, 0.0], 10 ** 300),
    # The two mean terms overflow to +inf and -inf, which sum to nan; the mean is 0.
    [(10 ** 300, 1e150, 1.0), (10 ** 300, -1e150, 1.0)],
    # delta ** 2 alone is beyond the float range.
    [(1, 0.0, 1e155)],
    # N delta^2 = 4e-340 underflows to 0.0; the residual is 5e-171.
    [(4, 0.0, 1e-170)],
    # Huge abars cancel to leave a tiny mean, 1e-30 / 3.
    [(1, 1e300, 1.0), (1, -1e300, 1.0), (1, 1e-30, 1.0)],
], ids=["residual", "mean-and-residual", "opposite-terms", "huge-delta", "tiny-delta",
        "cancelling-abars"])
def test_ensemble_average_is_exact_where_a_plain_sum_overflows(moments):
    mean, residual = ensemble_average(moments)
    exact_mean, exact_residual = _exact_average(moments)
    assert abs(mean - exact_mean) <= 4 * math.ulp(exact_mean), (mean, exact_mean)
    assert abs(residual - exact_residual) <= 4 * math.ulp(exact_residual), (residual,
                                                                            exact_residual)


# Each norm of a vector with entries near 1e-170 or 1e150 squared (warnings are errors).
def test_decompose_keeps_a_delta_whose_square_underflows():
    assert decompose(HermitianOperator(np.diag([1e-170, -1e-170])), PLUS).delta == 1e-170


def test_brute_force_average_keeps_a_residual_whose_square_underflows():
    op = HermitianOperator(np.diag([1e-170, -1e-170]))
    abar, residual = brute_force_average(op, EnsembleSpec(((PLUS, 4),)))
    assert abar == 0.0
    assert abs(residual - 5e-171) <= 4 * math.ulp(5e-171), residual


def test_commute_on_state_keeps_a_norm_whose_square_overflows():
    scale = 1e150  # errors.SCALE_MAX: [X, Z]|0> = 2|1> grows to 2e300
    norm = commute_on_state(HermitianOperator(scale * SIGMA_X.entries),
                            HermitianOperator(scale * SIGMA_Z.entries), KET0)
    assert math.isclose(norm, 2e300, rel_tol=4 * 2.0 ** -52), norm


def test_ensemble_spec_validates_dims():
    with pytest.raises(InvariantError, match="must share one copy dimension"):
        EnsembleSpec(((PLUS, 1), (basis_state(3, 0), 1)))
