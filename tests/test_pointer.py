"""Tests for the Gaussian pointer model: coupling, readout, sampling."""

import math

import numpy as np
import pytest

from tsvf_sim import (
    SIGMA_Z,
    DimensionError,
    GaussianPointer,
    HermitianOperator,
    InvariantError,
    NotInStrongRegime,
    PostSelectionImpossible,
    StateVector,
    TwoState,
    basis_state,
    classify_strong,
    couple,
    random_hermitian,
    random_state,
    readout_density,
    weak_estimate,
)

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
ANOMALOUS_POST = StateVector(
    np.array([math.cos(math.pi / 8.0), -math.sin(math.pi / 8.0)], dtype=complex)
)
TAN_3PI8 = 1.0 + math.sqrt(2.0)


def test_gaussian_pointer_requires_positive_sigma():
    with pytest.raises(InvariantError):
        GaussianPointer(sigma=0.0)


def test_gaussian_density_normalized():
    p = GaussianPointer(sigma=0.7, mean=1.3)
    q = np.linspace(-10, 12, 20001)
    assert np.isclose(np.trapezoid(p.density(q), q), 1.0, atol=1e-9)
    assert np.allclose(p.density(q), np.abs(p.amplitude(q)) ** 2, atol=1e-12)


def test_couple_eigenstate_single_term():
    joint = couple(KET0, SIGMA_Z, g=1.0, sigma=0.1)
    assert len(joint.terms) == 1
    term = joint.terms[0]
    assert term.eigenvalue == 1.0
    assert np.isclose(abs(term.amplitude), 1.0, atol=1e-12)
    assert np.isclose(term.pointer.mean, 1.0, atol=1e-12)


def test_couple_superposition_two_branches():
    joint = couple(PLUS, SIGMA_Z, g=1.0, sigma=0.2)
    assert len(joint.terms) == 2
    assert np.allclose(sorted(joint.branch_means()), [-1.0, 1.0])
    for term in joint.terms:
        assert np.isclose(abs(term.amplitude), 1.0 / math.sqrt(2.0), atol=1e-12)


def test_couple_weights_sum_to_one():
    rng = np.random.default_rng(21)
    for _ in range(100):
        psi = random_state(4, rng)
        op = random_hermitian(4, rng)
        joint = couple(psi, op, g=0.3, sigma=1.0)
        total = sum(abs(t.amplitude) ** 2 for t in joint.terms)
        assert np.isclose(total, 1.0, atol=1e-12)


def test_couple_merges_degenerate_eigenvalues():
    op = HermitianOperator(np.diag([1.0, 1.0, -1.0]).astype(complex))
    psi = StateVector(np.ones(3, dtype=complex) / math.sqrt(3.0))
    joint = couple(psi, op, g=1.0, sigma=0.5)
    assert len(joint.terms) == 2
    weights = {round(t.eigenvalue): abs(t.amplitude) ** 2 for t in joint.terms}
    assert np.isclose(weights[1], 2.0 / 3.0, atol=1e-12)
    assert np.isclose(weights[-1], 1.0 / 3.0, atol=1e-12)


def test_couple_dimension_mismatch():
    with pytest.raises(DimensionError):
        couple(basis_state(3, 0), SIGMA_Z, g=1.0, sigma=1.0)


def test_readout_no_post_is_single_gaussian():
    joint = couple(KET0, SIGMA_Z, g=2.0, sigma=0.3)
    density = readout_density(joint)
    q = np.linspace(-1, 5, 301)
    assert np.allclose(density.pdf(q), GaussianPointer(0.3, 2.0).density(q), atol=1e-12)
    assert density.success_prob == 1.0


def test_readout_no_post_mean_is_g_times_expectation():
    rng = np.random.default_rng(22)
    for _ in range(25):
        psi = random_state(3, rng)
        op = random_hermitian(3, rng)
        joint = couple(psi, op, g=0.7, sigma=0.9)
        assert np.isclose(readout_density(joint).mean(), 0.7 * op.expectation(psi),
                          atol=1e-12)


def test_readout_symmetric_post_has_zero_mean():
    joint = couple(PLUS, SIGMA_Z, g=0.01, sigma=1.0)
    assert np.isclose(readout_density(joint, post=PLUS).mean(), 0.0, atol=1e-12)


def test_readout_anomalous_mean_near_weak_value():
    """The post-selected pointer mean lands on g times the (anomalous) weak value."""
    g = 0.01
    joint = couple(PLUS, SIGMA_Z, g=g, sigma=1.0)
    density = readout_density(joint, post=ANOMALOUS_POST)
    assert abs(density.mean() / g - TAN_3PI8) / TAN_3PI8 < 0.01


def test_readout_weak_value_error_shrinks_quadratically():
    errors = []
    for ratio in (0.1, 0.03, 0.01):
        joint = couple(PLUS, SIGMA_Z, g=ratio, sigma=1.0)
        density = readout_density(joint, post=ANOMALOUS_POST)
        errors.append(abs(density.mean() / ratio - TAN_3PI8))
    assert errors[0] > errors[1] > errors[2]
    # O((g/sigma)^2): a 10x change in g/sigma moves the error by ~100x
    assert 100.0 / 3.0 < errors[0] / errors[2] < 100.0 * 3.0


def test_readout_pdf_integrates_to_one():
    rng = np.random.default_rng(23)
    for post in (None, ANOMALOUS_POST):
        joint = couple(random_state(2, rng), SIGMA_Z, g=0.4, sigma=0.8)
        density = readout_density(joint, post=post)
        q = np.linspace(-12, 12, 40001)
        assert np.isclose(np.trapezoid(density.pdf(q), q), 1.0, atol=1e-9)


def test_readout_mean_matches_quadrature():
    joint = couple(PLUS, SIGMA_Z, g=0.25, sigma=0.6)
    density = readout_density(joint, post=ANOMALOUS_POST)
    q = np.linspace(-10, 10, 80001)
    numeric = np.trapezoid(q * density.pdf(q), q)
    assert np.isclose(density.mean(), numeric, atol=1e-9)


def test_readout_orthogonal_post_impossible():
    joint = couple(KET0, SIGMA_Z, g=1.0, sigma=0.5)
    with pytest.raises(PostSelectionImpossible):
        readout_density(joint, post=KET1)


def test_readout_success_prob_weak_limit():
    # for g -> 0 the success probability approaches |<post|psi>|^2
    joint = couple(PLUS, SIGMA_Z, g=1e-6, sigma=1.0)
    density = readout_density(joint, post=KET0)
    assert np.isclose(density.success_prob, 0.5, atol=1e-9)


def test_sample_single_narrow_gaussian_stays_close():
    joint = couple(KET0, SIGMA_Z, g=5.0, sigma=0.1)
    rng = np.random.default_rng(24)
    readings = readout_density(joint).sample(rng, size=1000)
    assert np.all(np.abs(readings - 5.0) < 5 * 0.1)


def test_sample_mean_clt_no_post():
    joint = couple(PLUS, SIGMA_Z, g=0.01, sigma=1.0)
    rng = np.random.default_rng(25)
    samples = readout_density(joint).sample(rng, size=1_000_000)
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 0.0) < 4 * stderr


def test_sample_reading_deterministic_for_fixed_seed():
    joint = couple(PLUS, SIGMA_Z, g=0.5, sigma=1.0)
    density = readout_density(joint, ANOMALOUS_POST)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        runs.append([density.sample(rng) for _ in range(50)])
    assert runs[0] == runs[1]
    # one batched draw reads the same stream as 50 single draws
    batch = density.sample(np.random.default_rng(42), size=50)
    assert batch.tolist() == runs[0]


def test_sample_reading_signals_failed_post_selection():
    ts = TwoState(forward=PLUS, backward=KET0)
    rng = np.random.default_rng(26)
    trials = 200
    est = weak_estimate(ts, SIGMA_Z, g=1e-4, sigma=1.0, trials=trials, rng=rng)
    assert 0 < est.accepted < trials  # ~50% acceptance
    assert est.samples.shape == (est.accepted,)


def test_sample_covers_far_branches_at_strong_coupling():
    joint = couple(PLUS, SIGMA_Z, g=50.0, sigma=1.0)
    rng = np.random.default_rng(27)
    readings = readout_density(joint).sample(rng, size=10_000)
    near_plus = np.count_nonzero(np.abs(readings - 50.0) < 10.0)
    near_minus = np.count_nonzero(np.abs(readings + 50.0) < 10.0)
    assert near_plus + near_minus == readings.size
    assert abs(near_plus / readings.size - 0.5) < 3 * math.sqrt(0.25 / readings.size)


def test_classify_strong_nearest_mean():
    joint = couple(PLUS, SIGMA_Z, g=1.0, sigma=0.05)
    means = joint.branch_means()
    assert means[classify_strong(0.98, joint)] == 1.0
    assert means[classify_strong(-1.1, joint)] == -1.0


def test_classify_strong_rejects_overlapping_branches():
    joint = couple(PLUS, SIGMA_Z, g=1.0, sigma=1.0)
    with pytest.raises(NotInStrongRegime):
        classify_strong(0.0, joint)


def test_classify_strong_monte_carlo_born_frequencies():
    joint = couple(PLUS, SIGMA_Z, g=1.0, sigma=0.05)
    means = joint.branch_means()
    rng = np.random.default_rng(28)
    readings = readout_density(joint).sample(rng, size=100_000)
    plus_count = sum(means[classify_strong(q, joint)] == 1.0 for q in readings)
    freq = plus_count / readings.size
    assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / readings.size)
