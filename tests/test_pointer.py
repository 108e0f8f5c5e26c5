"""Tests for the Gaussian pointer model: coupling, readout, sampling."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from tsvf_sim import (
    SIGMA_Z,
    HermitianOperator,
    InvariantError,
    ReadoutDensity,
    StateVector,
    TwoState,
    readout_density,
    weak_estimate,
)
from tsvf_sim.errors import NoAcceptedTrials
from helpers import SIGMA_X, GaussianPointer, basis_state, random_hermitian, random_state

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
ANOMALOUS_POST = StateVector(
    np.array([math.cos(math.pi / 8.0), -math.sin(math.pi / 8.0)], dtype=complex)
)
TAN_3PI8 = 1.0 + math.sqrt(2.0)
# Post-selection that is nearly orthogonal to PLUS: at g/sigma = 0.01 it
# succeeds with probability 2.5e-5 and the sampler accepts 5e-5 of its proposals.
NEAR_ORTHOGONAL_POST = StateVector(
    np.array([math.cos(math.pi / 4.0 - 1e-6), -math.sin(math.pi / 4.0 - 1e-6)], dtype=complex)
)


def test_gaussian_pointer_requires_positive_sigma():
    with pytest.raises(InvariantError):
        GaussianPointer(sigma=0.0)


def test_couple_requires_positive_sigma():
    for post in (None, PLUS):
        with pytest.raises(InvariantError):
            readout_density(PLUS, SIGMA_Z, g=1.0, sigma=0.0, post=post)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_readout_density_rejects_nonpositive_sigma(sigma):
    with pytest.raises(InvariantError):
        ReadoutDensity(means=[1.0], weights=[1.0], sigma=sigma)


@pytest.mark.parametrize(("means", "weights"), [
    pytest.param([1.0, -1.0], [1.0], id="length-mismatch"),
    pytest.param([], [], id="empty"),
    pytest.param([[1.0]], [[1.0]], id="two-dimensional"),
])
def test_readout_density_rejects_malformed_components(means, weights):
    with pytest.raises(InvariantError, match="non-empty 1-d arrays of equal length"):
        ReadoutDensity(means=means, weights=weights, sigma=1.0)


@pytest.mark.parametrize(("means", "weights"), [
    pytest.param([0.0], [-1.0], id="no-positive-weight"),
    pytest.param([0.0, 1.0], [0.0, 0.0], id="all-zero"),
    pytest.param([0.0, 1.0], [1.0, -2.0], id="negative-sum"),
    pytest.param([0.0, 1.0], [1.0, -1.0], id="zero-sum"),
    pytest.param([0.0], [math.nan], id="nan-weight"),
])
def test_readout_density_rejects_weights_it_cannot_sample(means, weights):
    # Rejection sampling from such a mixture never accepts a proposal, so
    # `sample` would never return.
    with pytest.raises(InvariantError):
        ReadoutDensity(means=means, weights=weights, sigma=1.0)


def test_gaussian_density_normalized():
    p = GaussianPointer(sigma=0.7, mean=1.3)
    q = np.linspace(-10, 12, 20001)
    density = np.abs(p.amplitude(q)) ** 2
    assert np.isclose(np.trapezoid(density, q), 1.0, atol=1e-9)
    normal = np.exp(-((q - 1.3) ** 2) / (2 * 0.7 ** 2)) / math.sqrt(2 * math.pi * 0.7 ** 2)
    assert np.allclose(density, normal, atol=1e-12)


def test_couple_eigenstate_single_term():
    density = readout_density(KET0, SIGMA_Z, g=1.0, sigma=0.1)
    assert density.means.tolist() == [1.0]
    assert np.isclose(density.weights[0], 1.0, atol=1e-12)


def test_couple_superposition_two_branches():
    density = readout_density(PLUS, SIGMA_Z, g=1.0, sigma=0.2)
    assert np.allclose(sorted(density.means), [-1.0, 1.0])
    assert np.allclose(density.weights, [0.5, 0.5], atol=1e-12)


def test_couple_weights_sum_to_one():
    rng = np.random.default_rng(21)
    for _ in range(100):
        psi = random_state(4, rng)
        op = random_hermitian(4, rng)
        density = readout_density(psi, op, g=0.3, sigma=1.0)
        assert np.isclose(density.success_prob, 1.0, atol=1e-12)


def test_couple_merges_degenerate_eigenvalues():
    op = HermitianOperator(np.diag([1.0, 1.0, -1.0]).astype(complex))
    psi = StateVector(np.ones(3, dtype=complex) / math.sqrt(3.0))
    density = readout_density(psi, op, g=1.0, sigma=0.5)
    assert density.means.size == 2
    weights = dict(zip(np.round(density.means).tolist(), density.weights.tolist()))
    assert np.isclose(weights[1], 2.0 / 3.0, atol=1e-12)
    assert np.isclose(weights[-1], 1.0 / 3.0, atol=1e-12)


_REBUILD_RNG = np.random.default_rng(28)
REBUILD_OPS = {
    "random_2": random_hermitian(2, _REBUILD_RNG),
    "random_3": random_hermitian(3, _REBUILD_RNG),
    "random_5": random_hermitian(5, _REBUILD_RNG),
    "sigma_x": SIGMA_X,
    "degenerate_3": HermitianOperator(np.diag([1.0, 1.0, -1.0]).astype(complex)),
}


@pytest.mark.parametrize("name", REBUILD_OPS)
def test_couple_terms_rebuild_psi(name):
    """The Born projections p_i the coupling shifts add up to psi: no branch loses its phase."""
    op = REBUILD_OPS[name]
    rng = np.random.default_rng(38)
    for _ in range(20):
        psi = random_state(op.dim, rng)
        rebuilt = op.born_branches(psi)[2].sum(axis=0)
        assert np.allclose(rebuilt, psi.amps, rtol=0.0, atol=1e-12)


def test_couple_dimension_mismatch():
    with pytest.raises(InvariantError, match="state dim 3 != operator dim 2"):
        readout_density(basis_state(3, 0), SIGMA_Z, g=1.0, sigma=1.0)
    with pytest.raises(InvariantError, match="post-selection dim 3 != system dim 2"):
        readout_density(PLUS, SIGMA_Z, g=1.0, sigma=1.0, post=basis_state(3, 0))


def test_readout_no_post_is_single_gaussian():
    density = readout_density(KET0, SIGMA_Z, g=2.0, sigma=0.3)
    q = np.linspace(-1, 5, 301)
    single = np.abs(GaussianPointer(0.3, 2.0).amplitude(q)) ** 2
    assert np.allclose(density.pdf(q), single, atol=1e-12)
    assert density.success_prob == 1.0


def test_readout_no_post_mean_is_g_times_expectation():
    rng = np.random.default_rng(22)
    for _ in range(25):
        psi = random_state(3, rng)
        op = random_hermitian(3, rng)
        density = readout_density(psi, op, g=0.7, sigma=0.9)
        assert np.isclose(density.mean(), 0.7 * op.expectation(psi), atol=1e-12)


def test_readout_symmetric_post_has_zero_mean():
    density = readout_density(PLUS, SIGMA_Z, g=0.01, sigma=1.0, post=PLUS)
    assert np.isclose(density.mean(), 0.0, atol=1e-12)


def test_readout_anomalous_mean_near_weak_value():
    """The post-selected pointer mean lands on g times the (anomalous) weak value."""
    g = 0.01
    density = readout_density(PLUS, SIGMA_Z, g=g, sigma=1.0, post=ANOMALOUS_POST)
    assert abs(density.mean() / g - TAN_3PI8) / TAN_3PI8 < 0.01


def test_readout_weak_value_error_shrinks_quadratically():
    errors = []
    for ratio in (0.1, 0.03, 0.01):
        density = readout_density(PLUS, SIGMA_Z, g=ratio, sigma=1.0, post=ANOMALOUS_POST)
        errors.append(abs(density.mean() / ratio - TAN_3PI8))
    assert errors[0] > errors[1] > errors[2]
    # O((g/sigma)^2): a 10x change in g/sigma moves the error by ~100x
    assert 100.0 / 3.0 < errors[0] / errors[2] < 100.0 * 3.0


def test_readout_pdf_integrates_to_one():
    rng = np.random.default_rng(23)
    for post in (None, ANOMALOUS_POST):
        density = readout_density(random_state(2, rng), SIGMA_Z, g=0.4, sigma=0.8, post=post)
        q = np.linspace(-12, 12, 40001)
        assert np.isclose(np.trapezoid(density.pdf(q), q), 1.0, atol=1e-9)


def test_pdf_is_finite_far_out_and_for_a_tiny_weight_sum():
    # Warnings are errors here: the far reading's square overflows to a zero
    # kernel, and sigma times the weight sum would underflow to a zero norm.
    assert ReadoutDensity(means=[0.0], weights=[1.0], sigma=1.0).pdf(1e200) == 0.0
    tiny = ReadoutDensity(means=[0.0], weights=[1e-300], sigma=1e-150).pdf(0.0)
    assert math.isclose(tiny, 1.0 / (math.sqrt(2.0 * math.pi) * 1e-150), rel_tol=1e-15)


def test_mean_of_huge_weights_and_means_does_not_overflow():
    assert ReadoutDensity(means=[1e150], weights=[1e300], sigma=1.0).mean() == 1e150
    two = ReadoutDensity(means=[1e150, 5e149], weights=[1e300, 3e300], sigma=1.0)
    assert math.isclose(two.mean(), 6.25e149, rel_tol=1e-15)
    # Cancelling huge weights leave a tiny net weight that must not underflow.
    assert ReadoutDensity(means=[0.0, 0.0, 1.0], weights=[1e300, -1e300, 1e-30],
                          sigma=1.0).mean() == 1.0


def test_readout_mean_matches_quadrature():
    density = readout_density(PLUS, SIGMA_Z, g=0.25, sigma=0.6, post=ANOMALOUS_POST)
    q = np.linspace(-10, 10, 80001)
    numeric = np.trapezoid(q * density.pdf(q), q)
    assert np.isclose(density.mean(), numeric, atol=1e-9)


def _coherent_reference(psi, op, g, sigma, post, q):
    """Unnormalized readout density built from the shifted pointer wavefunctions."""
    terms = [(w, p, GaussianPointer(sigma, g * a).amplitude(q))
             for a, w, p in zip(*op.born_branches(psi))]
    if post is None:
        return sum(w * np.abs(phi) ** 2 for w, _, phi in terms)
    return np.abs(sum(np.vdot(post.amps, p) * phi for _, p, phi in terms)) ** 2


@pytest.mark.parametrize("ratio", [0.01, 1.0, 10.0])
def test_readout_mixture_matches_coherent_oracle(ratio):
    rng = np.random.default_rng(29)
    sigma = 0.7
    ops = [random_hermitian(d, rng) for d in (2, 3, 4)]
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    degenerate = basis @ np.diag([1.0, 1.0, -0.5]) @ basis.conj().T
    ops.append(HermitianOperator((degenerate + degenerate.conj().T) / 2.0))
    assert len(ops[-1].branches[0]) == 2
    for op in ops:
        psi, g = random_state(op.dim, rng), ratio * sigma
        means = g * op.branches[0]
        q = np.linspace(means.min() - 12 * sigma, means.max() + 12 * sigma, 20001)
        for post in (None, random_state(op.dim, rng)):
            density = readout_density(psi, op, g, sigma, post)
            reference = _coherent_reference(psi, op, g, sigma, post, q)
            total = np.trapezoid(reference, q)
            assert np.isclose(density.success_prob, total, rtol=1e-9, atol=0.0)
            expected = reference / total
            assert np.allclose(density.pdf(q), expected, rtol=0.0, atol=1e-9 * expected.max())
            assert np.isclose(density.mean(), np.trapezoid(q * expected, q),
                              rtol=0.0, atol=1e-9 * (1.0 + np.abs(means).max()))


def test_sample_moments_match_signed_mixture():
    density = readout_density(PLUS, SIGMA_Z, g=1.0, sigma=1.0, post=ANOMALOUS_POST)
    w, mu, s2 = density.weights, density.means, density.sigma ** 2
    assert np.count_nonzero(w < 0.0) == 1
    first = float(w @ mu / w.sum())
    second = float(w @ (mu ** 2 + s2) / w.sum())
    samples = density.sample(np.random.default_rng(30), size=200_000)
    n = samples.size
    assert abs(samples.mean() - first) < 4 * samples.std(ddof=1) / math.sqrt(n)
    assert abs((samples ** 2).mean() - second) < 4 * (samples ** 2).std(ddof=1) / math.sqrt(n)


def _mixture_cdf(density, readings):
    """F(q) = sum_k w_k Phi((q - mu_k) / sigma) / sum_k w_k at each reading, with math.erf."""
    components = list(zip(density.weights.tolist(), density.means.tolist()))
    total = math.fsum(w for w, _ in components)
    scale = math.sqrt(2.0) * density.sigma
    return np.array([
        math.fsum(w * (1.0 + math.erf((q - mu) / scale)) for w, mu in components) / (2.0 * total)
        for q in readings.tolist()
    ])


# Kolmogorov-Smirnov: sqrt(n) * D exceeds 1.95 with probability 0.001 for exact draws.
KS_CRITICAL = 1.95
KS_DRAWS = 20_000


@pytest.mark.parametrize(("g", "post", "seed"), [
    pytest.param(1.0, None, 40, id="no-post-overlapping"),
    pytest.param(5.0, None, 41, id="no-post-far-apart"),
    pytest.param(1.0, ANOMALOUS_POST, 42, id="anomalous-post"),
    pytest.param(1.0, StateVector(np.array([math.cos(-0.3), -math.sin(-0.3)], dtype=complex)),
                 43, id="post-angle-minus-0.3"),
])
def test_sample_distribution_matches_mixture_cdf(g, post, seed):
    density = readout_density(PLUS, SIGMA_Z, g=g, sigma=1.0, post=post)
    assert np.any(density.weights < 0.0) == (post is ANOMALOUS_POST)
    readings = np.sort(density.sample(np.random.default_rng(seed), size=KS_DRAWS))
    cdf = _mixture_cdf(density, readings)
    steps = np.arange(KS_DRAWS + 1) / KS_DRAWS
    distance = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
    assert distance < KS_CRITICAL / math.sqrt(KS_DRAWS)


def test_weak_estimate_near_orthogonal_post_stays_fast():
    ts = TwoState(forward=PLUS, backward=NEAR_ORTHOGONAL_POST)
    start = time.perf_counter()
    est = weak_estimate(ts, SIGMA_Z, g=0.01, sigma=1.0, trials=200_000,
                        rng=np.random.default_rng(31))
    assert time.perf_counter() - start < 1.0
    assert est.accepted >= 1


def test_sample_memory_bounded_at_tiny_acceptance():
    density = readout_density(PLUS, SIGMA_Z, g=0.01, sigma=1.0, post=NEAR_ORTHOGONAL_POST)
    assert density.success_prob / np.maximum(density.weights, 0.0).sum() < 1e-4
    tracemalloc.start()
    try:
        readings = density.sample(np.random.default_rng(32), size=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert readings.shape == (200,)
    assert peak < 32 * 2 ** 20


# One value just inside each documented limit of the pointer model and one
# just outside it, written out so that the tests pin the limits' values.
@pytest.mark.parametrize(("acceptance", "samples"), [(1.001e-12, True), (0.999e-12, False)])
def test_sample_refuses_an_acceptance_below_min_acceptance(acceptance, samples):
    # Weights 1 and acceptance - 1 at one mean: the sampler would keep that
    # share of its proposals. Asking for no reading checks the limit,
    # pointer.MIN_ACCEPTANCE = 1e-12, without the 10^12 proposals a single
    # reading would take.
    density = ReadoutDensity(means=[0.0, 0.0], weights=[1.0, acceptance - 1.0], sigma=1.0)
    if samples:
        assert density.sample(np.random.default_rng(0), 0).shape == (0,)
    else:
        with pytest.raises(NoAcceptedTrials, match="is below 1e-12"):
            density.sample(np.random.default_rng(0), 0)


@pytest.mark.parametrize(("weight", "components"), [(1.001e-28, 2), (0.999e-28, 1)])
def test_readout_density_drops_a_branch_at_or_below_negligible_weight(weight, components):
    # pointer.NEGLIGIBLE_WEIGHT = 1e-28
    psi = StateVector(np.array([math.sqrt(1.0 - weight), math.sqrt(weight)], dtype=complex))
    assert readout_density(psi, SIGMA_Z, g=1.0, sigma=1.0).means.size == components


def test_readout_orthogonal_post_impossible():
    with pytest.raises(NoAcceptedTrials, match="orthogonal to all branches"):
        readout_density(KET0, SIGMA_Z, g=1.0, sigma=0.5, post=KET1)


def test_readout_success_prob_weak_limit():
    # for g -> 0 the success probability approaches |<post|psi>|^2
    density = readout_density(PLUS, SIGMA_Z, g=1e-6, sigma=1.0, post=KET0)
    assert np.isclose(density.success_prob, 0.5, atol=1e-9)


def test_sample_single_narrow_gaussian_stays_close():
    rng = np.random.default_rng(24)
    readings = readout_density(KET0, SIGMA_Z, g=5.0, sigma=0.1).sample(rng, size=1000)
    assert np.all(np.abs(readings - 5.0) < 5 * 0.1)


def test_sample_mean_clt_no_post():
    rng = np.random.default_rng(25)
    samples = readout_density(PLUS, SIGMA_Z, g=0.01, sigma=1.0).sample(rng, size=1_000_000)
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 0.0) < 4 * stderr


def test_sample_reading_deterministic_for_fixed_seed():
    density = readout_density(PLUS, SIGMA_Z, g=0.5, sigma=1.0, post=ANOMALOUS_POST)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        runs.append(density.sample(rng, 50).tolist())
    assert runs[0] == runs[1]


# Each n needs more than one block of proposals, and each m more than n's blocks.
@pytest.mark.parametrize(("post", "g", "n", "m"), [
    (None, 0.5, 8195, 20_000),  # 8192 proposals a block, all kept
    (ANOMALOUS_POST, 0.5, 2100, 5000),  # signed weights: 5461 a block, 38% kept
    (NEAR_ORTHOGONAL_POST, 0.01, 2, 6),  # 5461 a block, 5e-5 kept
])
def test_sample_is_a_prefix_of_a_longer_sample(post, g, n, m):
    density = readout_density(PLUS, SIGMA_Z, g=g, sigma=1.0, post=post)
    short = density.sample(np.random.default_rng(43), n)
    long = density.sample(np.random.default_rng(43), m)
    assert np.array_equal(short, long[:n])


def test_weak_estimate_accepts_every_pair_two_state_accepts():
    ts = TwoState(forward=StateVector(np.array([1.0 + 9e-13, 0.0], dtype=complex)),
                  backward=StateVector(np.array([0.6, 0.8], dtype=complex)))
    est = weak_estimate(ts, SIGMA_Z, g=0.01, sigma=1.0, trials=1000,
                        rng=np.random.default_rng(37))
    assert 0 < est.accepted < 1000


def test_sample_reading_signals_failed_post_selection():
    ts = TwoState(forward=PLUS, backward=KET0)
    rng = np.random.default_rng(26)
    trials = 200
    est = weak_estimate(ts, SIGMA_Z, g=1e-4, sigma=1.0, trials=trials, rng=rng)
    assert 0 < est.accepted < trials  # ~50% acceptance
    assert est.samples.shape == (est.accepted,)


def test_sample_covers_far_branches_at_strong_coupling():
    rng = np.random.default_rng(27)
    readings = readout_density(PLUS, SIGMA_Z, g=50.0, sigma=1.0).sample(rng, size=10_000)
    near_plus = np.count_nonzero(np.abs(readings - 50.0) < 10.0)
    near_minus = np.count_nonzero(np.abs(readings + 50.0) < 10.0)
    assert near_plus + near_minus == readings.size
    assert abs(near_plus / readings.size - 0.5) < 3 * math.sqrt(0.25 / readings.size)

