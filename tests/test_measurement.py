"""Tests for projective measurement, post-selection, and weak values."""

import math

import numpy as np
import pytest

from tsvf_sim import (
    SIGMA_X,
    SIGMA_Z,
    DimensionError,
    HermitianOperator,
    InvariantError,
    NearOrthogonalPrePost,
    NoAcceptedTrials,
    StateVector,
    TwoState,
    basis_state,
    eig_hermitian,
    identity,
    post_select,
    projector,
    random_hermitian,
    random_state,
    strong_measure,
    weak_estimate,
    weak_trial,
    weak_value,
)
from tsvf_sim.measurement import measure_outcomes

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
ANOMALOUS = TwoState(
    forward=PLUS,
    backward=StateVector(
        np.array([math.cos(math.pi / 8.0), -math.sin(math.pi / 8.0)], dtype=complex)
    ),
)
TAN_3PI8 = 1.0 + math.sqrt(2.0)


def test_strong_measure_eigenstate():
    rng = np.random.default_rng(31)
    record = strong_measure(KET0, SIGMA_Z, rng)
    assert record.outcome == 1.0
    assert np.isclose(record.probability, 1.0, atol=1e-12)
    assert np.allclose(record.collapsed.amps, KET0.amps, atol=1e-12)


def test_strong_measure_born_frequencies():
    psi = StateVector(np.array([0.6, 0.8], dtype=complex))
    rng = np.random.default_rng(32)
    trials = 100_000
    plus = sum(strong_measure(psi, SIGMA_Z, rng).outcome == 1.0 for _ in range(trials))
    freq = plus / trials
    assert abs(freq - 0.36) < 3 * math.sqrt(0.36 * 0.64 / trials)


def test_strong_measure_identity_leaves_state():
    rng = np.random.default_rng(33)
    psi = random_state(3, rng)
    record = strong_measure(psi, identity(3), rng)
    assert np.isclose(record.probability, 1.0, atol=1e-12)
    assert np.allclose(record.collapsed.amps, psi.amps, atol=1e-12)


def test_strong_measure_probability_matches_born_weight():
    rng = np.random.default_rng(34)
    for _ in range(50):
        psi = random_state(4, rng)
        op = random_hermitian(4, rng)
        record = strong_measure(psi, op, rng)
        branch = min(op.branches, key=lambda b: abs(b.eigenvalue - record.outcome))
        weight = float(np.linalg.norm(branch.project(psi.amps)) ** 2)
        assert np.isclose(record.probability, weight, atol=1e-12)


def test_strong_measure_collapsed_is_eigenstate():
    rng = np.random.default_rng(35)
    psi = random_state(4, rng)
    op = random_hermitian(4, rng)
    record = strong_measure(psi, op, rng)
    applied = op.apply(record.collapsed)
    assert np.allclose(applied, record.outcome * record.collapsed.amps, atol=1e-9)


_CASE_RNG = np.random.default_rng(39)
BORN_CASES = {
    "sigma_z": (StateVector(np.array([0.6, 0.8], dtype=complex)), SIGMA_Z),
    "alpha2_1": (KET0, SIGMA_Z),
    "alpha2_0": (KET1, SIGMA_Z),
    "random_4": (random_state(4, _CASE_RNG), random_hermitian(4, _CASE_RNG)),
    "identity_3": (random_state(3, _CASE_RNG), identity(3)),
    "doubly_degenerate": (random_state(3, _CASE_RNG),
                          HermitianOperator(np.diag([2.0, -1.0, 2.0]).astype(complex))),
}


@pytest.mark.parametrize("case", BORN_CASES)
def test_measure_outcomes_equals_strong_measure_loop(case):
    psi, op = BORN_CASES[case]
    batched = measure_outcomes(psi, op, np.random.default_rng(40), 2000)
    loop_rng = np.random.default_rng(40)
    looped = [strong_measure(psi, op, loop_rng).outcome for _ in range(2000)]
    assert batched.tolist() == looped


def test_measure_outcomes_rejects_what_strong_measure_rejects():
    rng = np.random.default_rng(41)
    unnormalized = StateVector(np.array([1.0, 1.0], dtype=complex))
    for psi, op, error in ((basis_state(3, 0), SIGMA_Z, DimensionError),
                           (unnormalized, SIGMA_Z, InvariantError)):
        with pytest.raises(error) as single:
            strong_measure(psi, op, rng)
        with pytest.raises(error) as batched:
            measure_outcomes(psi, op, rng, 10)
        assert str(batched.value) == str(single.value)


def test_post_select_same_state_always_succeeds():
    rng = np.random.default_rng(36)
    psi = random_state(3, rng)
    assert all(post_select(psi, psi, rng) for _ in range(100))


def test_post_select_orthogonal_never_succeeds():
    rng = np.random.default_rng(37)
    assert not any(post_select(KET0, KET1, rng) for _ in range(100))


def test_post_select_rate_matches_overlap():
    rng = np.random.default_rng(38)
    trials = 100_000
    hits = sum(post_select(PLUS, KET0, rng) for _ in range(trials))
    assert abs(hits / trials - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_two_state_rejects_orthogonal_pair():
    with pytest.raises(NearOrthogonalPrePost):
        TwoState(forward=KET0, backward=KET1)


def test_weak_value_reduces_to_expectation():
    ts = TwoState(forward=PLUS, backward=PLUS)
    assert np.isclose(weak_value(ts, SIGMA_Z), 0.0, atol=1e-12)
    rng = np.random.default_rng(39)
    for _ in range(20):
        psi = random_state(4, rng)
        op = random_hermitian(4, rng)
        ts = TwoState(forward=psi, backward=psi)
        assert np.isclose(weak_value(ts, op), op.expectation(psi), atol=1e-12)


def test_weak_value_anomalous_pair():
    value = weak_value(ANOMALOUS, SIGMA_Z)
    assert np.isclose(value.real, TAN_3PI8, atol=1e-12)
    assert np.isclose(value.imag, 0.0, atol=1e-12)
    assert value.real > 1.0  # outside the eigenvalue range of sigma_z


def test_weak_value_sigma_x_plain_pair():
    ts = TwoState(forward=KET0, backward=PLUS)
    assert np.isclose(weak_value(ts, SIGMA_X), 1.0, atol=1e-12)


def test_weak_value_linear_in_operator():
    rng = np.random.default_rng(40)
    for _ in range(20):
        ts = TwoState(forward=random_state(3, rng), backward=random_state(3, rng))
        a = random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        combined = HermitianOperator(0.6 * a.entries + 1.7 * b.entries)
        expected = 0.6 * weak_value(ts, a) + 1.7 * weak_value(ts, b)
        assert np.isclose(weak_value(ts, combined), expected, atol=1e-12)


def test_weak_value_of_identity_is_one():
    rng = np.random.default_rng(41)
    for _ in range(20):
        ts = TwoState(forward=random_state(4, rng), backward=random_state(4, rng))
        assert np.isclose(weak_value(ts, identity(4)), 1.0, atol=1e-12)


def test_weak_value_projector_sum_rule():
    rng = np.random.default_rng(42)
    op = random_hermitian(4, rng)
    _, vectors = eig_hermitian(op)
    ts = TwoState(forward=random_state(4, rng), backward=random_state(4, rng))
    total = sum(weak_value(ts, projector(v)) for v in vectors)
    assert np.isclose(total, 1.0, atol=1e-12)


def test_weak_value_rejects_tiny_overlap():
    nearly = StateVector(np.array([1e-13, 1.0], dtype=complex)).normalize()
    ts = TwoState(forward=KET0, backward=nearly)
    with pytest.raises(NearOrthogonalPrePost):
        weak_value(ts, SIGMA_Z)


def test_weak_trial_strong_coupling_clusters_on_selected_branch():
    # backward |0> picks out the +1 branch; at g/sigma = 10 the accepted
    # readings sit on that branch's pointer alone.
    ts = TwoState(forward=PLUS, backward=KET0)
    rng = np.random.default_rng(43)
    accepted = []
    while len(accepted) < 50:
        q = weak_trial(ts, SIGMA_Z, g=10.0, sigma=1.0, rng=rng)
        if q is not None:
            accepted.append(q)
    assert np.all(np.abs(np.array(accepted) - 10.0) < 5.0)


def test_weak_trial_no_post_selection_effect_on_matched_pair():
    psi = StateVector(np.array([0.6, 0.8], dtype=complex))
    ts = TwoState(forward=psi, backward=psi)
    rng = np.random.default_rng(44)
    est = weak_estimate(ts, SIGMA_Z, g=0.05, sigma=1.0, trials=200_000, rng=rng)
    expected = SIGMA_Z.expectation(psi)  # -0.28
    assert abs(est.mean / 0.05 - expected) < 4 * est.stderr / 0.05


def test_weak_estimate_anomalous_mean():
    rng = np.random.default_rng(45)
    est = weak_estimate(ANOMALOUS, SIGMA_Z, g=0.01, sigma=1.0, trials=400_000, rng=rng)
    assert abs(est.mean / 0.01 - TAN_3PI8) < 4 * est.stderr / 0.01
    assert est.accepted > 0
    assert 0.0 < est.acceptance_rate < 1.0


def test_weak_estimate_stderr_clt_scaling():
    rngs = (np.random.default_rng(46), np.random.default_rng(47))
    small = weak_estimate(ANOMALOUS, SIGMA_Z, 0.01, 1.0, 10_000, rngs[0])
    large = weak_estimate(ANOMALOUS, SIGMA_Z, 0.01, 1.0, 40_000, rngs[1])
    ratio = large.stderr / small.stderr
    assert abs(ratio - 0.5) < 0.1


def test_weak_estimate_acceptance_rate_weak_limit():
    ts = TwoState(forward=PLUS, backward=KET0)
    rng = np.random.default_rng(48)
    trials = 100_000
    est = weak_estimate(ts, SIGMA_Z, g=1e-4, sigma=1.0, trials=trials, rng=rng)
    assert abs(est.acceptance_rate - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_weak_estimate_deterministic_for_fixed_seed():
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(49)
        runs.append(weak_estimate(ANOMALOUS, SIGMA_Z, 0.01, 1.0, 5_000, rng))
    assert runs[0].mean == runs[1].mean
    assert runs[0].accepted == runs[1].accepted
    assert np.array_equal(runs[0].samples, runs[1].samples)


def test_weak_estimate_no_accepted_trials():
    nearly = StateVector(np.array([1e-5, -1.0], dtype=complex)).normalize()
    ts = TwoState(forward=KET0, backward=nearly)
    rng = np.random.default_rng(50)
    with pytest.raises(NoAcceptedTrials):
        weak_estimate(ts, SIGMA_Z, g=1e-6, sigma=1.0, trials=50, rng=rng)


def test_weak_estimate_rejects_zero_trials():
    rng = np.random.default_rng(51)
    with pytest.raises(InvariantError):
        weak_estimate(ANOMALOUS, SIGMA_Z, 0.01, 1.0, 0, rng)
