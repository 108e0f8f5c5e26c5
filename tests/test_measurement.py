"""Tests for projective measurement and post-selected weak values."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tsvf_sim import (
    SIGMA_Z,
    HermitianOperator,
    InvariantError,
    NoAcceptedTrials,
    StateVector,
    TwoState,
    projector,
    readout_density,
    strong_measure,
    weak_estimate,
    weak_value,
)
from tsvf_sim.experiments import BORN_BLOCK, EXPERIMENTS, resolve_params
from tsvf_sim.measurement import WeakEstimate
from tsvf_sim.pointer import _inverse_cdf
from helpers import SIGMA_X, basis_state, identity, random_hermitian, random_state, result_columns

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
        eigenvalues, bases = op.branches
        basis = bases[int(np.argmin(np.abs(eigenvalues - record.outcome)))]
        weight = float(np.linalg.norm(basis @ (basis.conj().T @ psi.amps)) ** 2)
        assert np.isclose(record.probability, weight, atol=1e-12)


def test_strong_measure_collapsed_is_eigenstate():
    rng = np.random.default_rng(35)
    psi = random_state(4, rng)
    op = random_hermitian(4, rng)
    record = strong_measure(psi, op, rng)
    applied = op.apply(record.collapsed)
    assert np.allclose(applied, record.outcome * record.collapsed.amps, atol=1e-9)


def _born_result(alpha2: float, trials: int, seed: int):
    exp = EXPERIMENTS["born"]
    return exp.runner(resolve_params(exp, {"alpha2": repr(alpha2), "trials": str(trials)}), seed)


def _exact_born_reference(alpha2: float, trials: int, seed: int) -> list[int]:
    """born's outcomes, decided trial by trial in exact rationals.

    Each block of BORN_BLOCK bytes is drawn as the runner draws it. Trial t
    is +1 iff (byte_t + r_t) / 256 < alpha2, and r_t = rng.random() is drawn
    only where byte_t leaves that open.
    """
    rng, target, outcomes = random.Random(seed), 256 * Fraction(alpha2), []
    for start in range(0, trials, BORN_BLOCK):
        for byte in rng.randbytes(BORN_BLOCK)[:trials - start]:
            if byte + 1 <= target:
                outcomes.append(1)
            elif byte >= target:
                outcomes.append(-1)
            else:
                outcomes.append(1 if byte + Fraction(rng.random()) < target else -1)
    return outcomes


@pytest.mark.parametrize("alpha2", [0.0, 1.0, 1e-17, 5e-324, 0.5, 0.36, 3 / 256, 1 - 2 ** -53])
def test_born_outcomes_equal_an_exact_per_trial_reference(alpha2):
    # Five rows past a block, so the run's draws cross a block boundary.
    trials = BORN_BLOCK + 5
    index, outcomes = result_columns(_born_result(alpha2, trials, 40))
    assert index == list(range(trials))
    assert outcomes == _exact_born_reference(alpha2, trials, 40)


def test_born_table_does_not_depend_on_the_chunk_size():
    result = _born_result(0.36, 2 * BORN_BLOCK + 3, 41)
    table = result_columns(result)
    for size in (1, 7, BORN_BLOCK - 1, BORN_BLOCK, 10 ** 6):
        chunks = list(result.chunks(size))
        assert all(len(rows) <= size for _, rows in chunks)
        assert tuple(list(itertools.chain.from_iterable(column))
                     for column in zip(*chunks)) == table, size


def test_born_weight_is_the_plus_weight_of_sigma_z_born_branches():
    # born decides on alpha2 itself; it is the Born weight of |0> in
    # sqrt(alpha2)|0> + sqrt(1 - alpha2)|1>, as the library expands it.
    for alpha2 in [i / 64 for i in range(65)] + [0.36, 1e-17, 5e-324, 3 / 256, 1 - 2 ** -53]:
        psi = StateVector(np.array([math.sqrt(alpha2), math.sqrt(1.0 - alpha2)], dtype=complex))
        eigenvalues, weights, _ = SIGMA_Z.born_branches(psi)
        assert abs(weights[eigenvalues == 1.0][0] - alpha2) <= math.ulp(alpha2), alpha2


def test_strong_measure_rejects_a_wrong_dimension_and_an_unnormalized_state():
    rng = np.random.default_rng(41)
    unnormalized = StateVector(np.array([1.0, 1.0], dtype=complex))
    for psi, match in ((basis_state(3, 0), "state dim 3 != operator dim 2"),
                       (unnormalized, "do not sum to 1")):
        with pytest.raises(InvariantError, match=match):
            strong_measure(psi, SIGMA_Z, rng)


@pytest.mark.parametrize(("excess", "accepted"), [(3e-11, True), (1e-9, False)])
def test_strong_and_weak_paths_share_one_normalization_tolerance(excess, accepted):
    """strong_measure and readout_density both expand psi by born_branches: same states pass."""
    psi = StateVector(PLUS.amps * (1.0 + excess))
    calls = (lambda: strong_measure(psi, SIGMA_Z, np.random.default_rng(42)),
             lambda: readout_density(psi, SIGMA_Z, g=0.1, sigma=1.0))
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(InvariantError):
                call()


class _ZeroDraws:
    """Generator stand-in whose uniform draws are all exactly 0.0, a value random() can return."""

    def random(self):
        return 0.0


def test_zero_draw_never_picks_a_zero_weight_branch():
    # |0> has Born weight 0 on the -1 branch, which comes first in ascending order.
    record = strong_measure(KET0, SIGMA_Z, _ZeroDraws())
    assert record.outcome == 1.0 and record.probability == 1.0
    assert np.allclose(record.collapsed.amps, KET0.amps, rtol=0.0, atol=1e-12)
    # The shared inverse CDF at both ends of [0, 1), with zero weights first,
    # between positive ones and last, and totals that are not 1.
    below_one = np.nextafter(1.0, 0.0)
    for weights in ([0.0, 1.0, 0.0], [0.0, 0.3, 0.0, 0.7, 0.0], [0.0, 0.1, 0.2, 0.0],
                    [0.0, 1e-300, 0.0], [0.0, 0.0, 3.0, 5.0, 0.0, 0.0]):
        positive = np.flatnonzero(weights)
        cum = np.cumsum(weights)
        assert _inverse_cdf(cum, 0.0) == positive[0]
        assert _inverse_cdf(cum, below_one) == positive[-1]
        assert _inverse_cdf(cum, np.array([0.0, below_one])).tolist() == [positive[0], positive[-1]]


def test_two_state_rejects_orthogonal_pair():
    with pytest.raises(InvariantError, match=r"\|overlap\| = 0.000e\+00 is at or below"):
        TwoState(forward=KET0, backward=KET1)


def test_two_state_overlap_is_not_an_argument():
    with pytest.raises(TypeError):
        TwoState(forward=PLUS, backward=PLUS, overlap=5)


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
    ts = TwoState(forward=random_state(4, rng), backward=random_state(4, rng))
    vectors = [StateVector(v) for b in op.branches[1] for v in b.T]
    total = sum(weak_value(ts, projector(v)) for v in vectors)
    assert np.isclose(total, 1.0, atol=1e-12)


def test_weak_value_rejects_tiny_overlap():
    # The pair is rejected when it is built, so no weak value is ever asked of it.
    nearly = StateVector(np.array([1e-13, 1.0], dtype=complex)).normalize()
    with pytest.raises(InvariantError, match=r"\|overlap\| = 1.000e-13 is at or below"):
        TwoState(forward=KET0, backward=nearly)


def test_weak_estimate_strong_coupling_clusters_on_selected_branch():
    # backward |0> picks out the +1 branch; at g/sigma = 10 the accepted
    # readings sit on that branch's pointer alone.
    ts = TwoState(forward=PLUS, backward=KET0)
    rng = np.random.default_rng(43)
    est = weak_estimate(ts, SIGMA_Z, g=10.0, sigma=1.0, trials=100, rng=rng)
    assert est.accepted >= 20
    assert np.all(np.abs(est.samples - 10.0) < 5.0)


def test_weak_estimate_no_post_selection_effect_on_matched_pair():
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


@pytest.mark.parametrize("seed", [52, 53, 54])
def test_weak_estimate_equals_one_binomial_count_then_one_sample(seed):
    trials = 50_000
    est = weak_estimate(ANOMALOUS, SIGMA_Z, 0.01, 1.0, trials, np.random.default_rng(seed))
    density = readout_density(ANOMALOUS.forward, SIGMA_Z, 0.01, 1.0, post=ANOMALOUS.backward)
    rng = np.random.default_rng(seed)
    accepted = int(rng.binomial(trials, min(density.success_prob, 1.0)))
    assert est.accepted == accepted
    assert np.array_equal(est.samples, density.sample(rng, accepted))


def test_weak_estimate_accepts_every_trial_when_success_prob_rounds_above_one():
    # A matched pair post-selects with certainty, but its weights can sum to a
    # hair above 1, which a bare rng.binomial rejects with a ValueError.
    psi = random_state(3, np.random.default_rng(3))
    assert readout_density(psi, identity(3), 0.1, 1.0, post=psi).success_prob > 1.0
    est = weak_estimate(TwoState(forward=psi, backward=psi), identity(3), 0.1, 1.0, 1000,
                        np.random.default_rng(55))
    assert est.accepted == 1000 and est.acceptance_rate == 1.0


def test_weak_estimate_freezes_its_own_samples_but_never_a_callers():
    est = weak_estimate(ANOMALOUS, SIGMA_Z, 0.01, 1.0, 1_000, np.random.default_rng(53))
    assert not est.samples.flags.writeable
    mine = np.array([1.0, 2.0])
    kept = WeakEstimate(mean=1.5, stderr=0.5, acceptance_rate=1.0, accepted=2, samples=mine)
    assert mine.flags.writeable and not kept.samples.flags.writeable
    mine[0] = 7.0
    assert kept.samples.tolist() == [1.0, 2.0]


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
