"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion NN] label: PASS/FAIL` line (visible under
`pytest -s`) with its elapsed time, and asserts both the numeric condition and
the runtime budget. Tolerances follow the stated bands; every expected number
is either exact algebra or an independently derived oracle value.
"""

import contextlib
import io
import math
from time import perf_counter

import numpy as np

from tsvf_sim import (
    SIGMA_Z,
    EnsembleSpec,
    FinalBoundary,
    RobustnessModel,
    StateVector,
    TwoState,
    average_operator_residual,
    average_spin_commutator,
    brute_force_average,
    brute_force_ratio,
    brute_force_spin_commutator,
    classical_threshold,
    commute_on_state,
    couple,
    deterministic_basis,
    log_robustness_ratio,
    random_state,
    readout_density,
    robustness_ratio,
    sample_final_boundary,
    select_by_final,
    weak_estimate,
)
from tsvf_sim.cli import main as cli_main
from tsvf_sim.measurement import measure_outcomes

PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
ANOMALOUS_BACKWARD = StateVector(
    np.array([math.cos(math.pi / 8.0), -math.sin(math.pi / 8.0)], dtype=complex)
)
TAN_3PI8 = 1.0 + math.sqrt(2.0)  # 2.4142135623...


def _finish(number, label, budget, start, checks):
    """Print the criterion verdict line and assert every check plus the budget."""
    elapsed = perf_counter() - start
    failed = [msg for ok, msg in checks if not ok]
    if budget is not None and elapsed >= budget:
        failed.append(f"runtime {elapsed:.2f}s exceeded budget {budget:.0f}s")
    status = "FAIL" if failed else "PASS"
    print(f"[criterion {number:02d}] {label}: {status} ({elapsed:.2f}s)")
    assert not failed, f"criterion {number}: " + "; ".join(failed)


def test_criterion_01_born_statistics():
    start = perf_counter()
    psi = StateVector(np.array([0.6, 0.8], dtype=complex))
    rng = np.random.default_rng(12345)
    trials = 100_000
    plus = int(np.count_nonzero(measure_outcomes(psi, SIGMA_Z, rng, trials) == 1.0))
    freq = plus / trials
    band = 3.0 * math.sqrt(0.36 * 0.64 / trials)  # ~0.0046
    _finish(1, "Born statistics", 5.0, start, [
        (abs(freq - 0.36) < band,
         f"frequency {freq:.5f} outside 0.36 +/- {band:.4f}"),
    ])


def test_criterion_02_weak_value_pointer_shift():
    start = perf_counter()
    ts = TwoState(forward=PLUS, backward=ANOMALOUS_BACKWARD)
    g, sigma = 0.01, 1.0
    rng = np.random.default_rng(20202)
    est = weak_estimate(ts, SIGMA_Z, g, sigma, trials=7_200_000, rng=rng)
    mean_over_g = est.mean / g
    stderr_over_g = est.stderr / g
    _finish(2, "weak value = pointer shift", 60.0, start, [
        (est.accepted >= 1_000_000, f"only {est.accepted} accepted trials"),
        (abs(mean_over_g - TAN_3PI8) < 4.0 * stderr_over_g,
         f"mean/g {mean_over_g:.4f} not within 4 stderr ({stderr_over_g:.4f}) of {TAN_3PI8:.4f}"),
        (mean_over_g > 1.0, f"mean/g {mean_over_g:.4f} not anomalous (inside [-1, 1])"),
    ])


def test_criterion_03_first_order_convergence():
    start = perf_counter()
    errors = {}
    for ratio in (0.1, 0.01):
        joint = couple(PLUS, SIGMA_Z, g=ratio, sigma=1.0)
        density = readout_density(joint, post=ANOMALOUS_BACKWARD)
        errors[ratio] = abs(density.mean() / ratio - TAN_3PI8)
    shrink = errors[0.1] / errors[0.01]
    # O((g/sigma)^2) predicts a factor of 100 for a 10x drop in g/sigma
    _finish(3, "first-order convergence", 1.0, start, [
        (errors[0.1] > errors[0.01], "error did not shrink with g/sigma"),
        (100.0 / 3.0 < shrink < 100.0 * 3.0,
         f"shrink factor {shrink:.1f} not within a factor 3 of 100"),
    ])


def test_criterion_04_average_operator_scaling():
    start = perf_counter()
    sizes = [100, 1_000, 10_000, 100_000]
    residuals = [
        average_operator_residual(SIGMA_Z, EnsembleSpec(((PLUS, n),)))[1]
        for n in sizes
    ]
    slope = float(np.polyfit(np.log10(sizes), np.log10(residuals), 1)[0])
    closed = average_operator_residual(SIGMA_Z, EnsembleSpec(((PLUS, 4),)))[1]
    brute = brute_force_average(SIGMA_Z, EnsembleSpec(((PLUS, 4),)))[1]
    _finish(4, "average-operator 1/sqrt(N) scaling", 10.0, start, [
        (abs(slope - (-0.5)) < 0.01, f"log-log slope {slope:.4f} not -0.5 +/- 0.01"),
        (abs(brute - closed) < 1e-10,
         f"oracle residual {brute!r} differs from closed form {closed!r}"),
        (abs(brute - 0.5) < 1e-10, f"N=4 residual {brute!r} is not 0.5"),
    ])


def test_criterion_05_deterministic_operator_count():
    start = perf_counter()
    checks = []
    for dim, expected in ((2, 2), (3, 5), (4, 10)):
        psi = random_state(dim, np.random.default_rng(dim + 100))
        ops = deterministic_basis(psi)
        checks.append(
            (len(ops) == expected, f"d={dim}: got {len(ops)} operators, want {expected}")
        )
        worst = max(
            commute_on_state(a, b, psi)
            for i, a in enumerate(ops) for b in ops[i + 1:]
        )
        checks.append(
            (worst <= 1e-10, f"d={dim}: commutator residual {worst:.2e} > 1e-10")
        )
    _finish(5, "deterministic-operator count", 1.0, start, checks)


def test_criterion_06_average_spin_commutator():
    start = perf_counter()
    checks = []
    for n in range(1, 11):
        scale, identity_error = brute_force_spin_commutator(n)
        checks.append(
            (identity_error <= 1e-12,
             f"N={n}: identity violated entrywise by {identity_error:.2e}")
        )
        checks.append(
            (abs(scale - 1.0 / (2.0 * n)) <= 1e-12,
             f"N={n}: scale {scale!r} differs from 1/(2N)")
        )
    closed = average_spin_commutator(10 ** 6)
    checks.append((closed < 1e-6, f"closed-form scale {closed!r} not < 1e-6 at N=1e6"))
    checks.append((abs(closed - 5e-7) < 1e-18, f"closed-form scale {closed!r} != 5e-7"))
    _finish(6, "average-spin commutator identity", 30.0, start, checks)


def test_criterion_07_robustness_ratio():
    start = perf_counter()
    half = 1.0 / math.sqrt(2.0)
    reference = RobustnessModel(alpha=half, beta=half, env_size=20, overlap=0.9,
                                n_collapsed=5, gamma1=0.9, gamma2=0.9)
    ratio = robustness_ratio(reference)
    oracle_model = RobustnessModel(alpha=half, beta=half, env_size=8, overlap=0.9,
                                   n_collapsed=2, gamma1=0.9, gamma2=0.9)
    brute = brute_force_ratio(oracle_model)
    closed = robustness_ratio(oracle_model)
    logs = [
        log_robustness_ratio(
            RobustnessModel(alpha=half, beta=half, env_size=n, overlap=0.9,
                            n_collapsed=3, gamma1=0.9, gamma2=0.9)
        )
        for n in range(4, 15)
    ]
    slope_errors = np.abs(np.diff(logs) - (-2.0 * math.log(0.9)))
    _finish(7, "robustness ratio", 10.0, start, [
        (abs(ratio - 23.59) < 0.01, f"closed form {ratio:.4f} not 23.59 +/- 0.01"),
        (abs(brute - closed) / closed < 1e-9,
         f"oracle {brute!r} vs closed {closed!r} beyond 1e-9 relative"),
        (np.all(slope_errors < 1e-9),
         f"log-ratio slope deviates by up to {slope_errors.max():.2e}"),
    ])


def test_criterion_08_two_time_selection():
    start = perf_counter()
    m = RobustnessModel(alpha=0.6, beta=0.8, env_size=10, overlap=0.9)
    p_right_i, p_wrong_i = select_by_final(m, FinalBoundary(reading="I"))
    p_right_ii, p_wrong_ii = select_by_final(m, FinalBoundary(reading="II"))
    rng = np.random.default_rng(808)
    universes = 100_000
    hits = sum(sample_final_boundary(m, rng) == "I" for _ in range(universes))
    freq = hits / universes
    band = 3.0 * math.sqrt(0.36 * 0.64 / universes)
    _finish(8, "two-time selection", 10.0, start, [
        (p_wrong_i == 0.0 and p_wrong_ii == 0.0,
         f"p_wrong not exactly zero: {p_wrong_i!r}, {p_wrong_ii!r}"),
        (np.isclose(p_right_i, 0.36, atol=1e-12) and np.isclose(p_right_ii, 0.64, atol=1e-12),
         f"branch weights {p_right_i}, {p_right_ii} wrong"),
        (abs(freq - 0.36) < band,
         f"branch-I frequency {freq:.5f} outside 0.36 +/- {band:.4f}"),
    ])


def test_criterion_09_classical_threshold():
    start = perf_counter()
    threshold = classical_threshold(0, 0.9, 1.0, 1.0, 10 ** 6)
    half = 1.0 / math.sqrt(2.0)

    def ratio_at(env_size):
        return robustness_ratio(
            RobustnessModel(alpha=half, beta=half, env_size=env_size, overlap=0.9)
        )

    below, at = ratio_at(65), ratio_at(66)
    _finish(9, "classical threshold", 1.0, start, [
        (threshold == 66, f"threshold {threshold} != 66"),
        (below < 10 ** 6, f"ratio at N=65 is {below:.1f}, not below 1e6"),
        (at >= 10 ** 6, f"ratio at N=66 is {at:.1f}, below 1e6"),
    ])


def test_criterion_10_reproducibility(tmp_path):
    start = perf_counter()
    configs = {
        "born": ["--param", "trials=2000"],
        "weakvalue": ["--param", "trials=20000"],
        "convergence": [],
        "commutator": ["--param", "brute_max=4"],
        "robustness": [],
        "threshold": [],
        "decay": [],
    }
    checks = []
    for name, extra in configs.items():
        paths = [tmp_path / f"{name}_{i}.csv" for i in (0, 1)]
        for path in paths:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["run", "--experiment", name, "--seed", "31337",
                                 *extra, "--out", str(path)])
            checks.append((code == 0, f"{name}: exit code {code}"))
        checks.append(
            (paths[0].read_bytes() == paths[1].read_bytes(),
             f"{name}: re-run output differs")
        )
    _finish(10, "byte-identical reruns", 60.0, start, checks)
