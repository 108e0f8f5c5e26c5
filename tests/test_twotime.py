"""Tests for the amplified-record model: branches, final boundaries, collapse."""

import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvf_sim import branches
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
    brute_force_ratio,
    classical_threshold,
    commute_on_state,
    core_decay,
    log_robustness_ratio,
    readout_density,
    robustness_ratio,
    select_by_final,
    weak_estimate,
)
from tsvf_sim.experiments import EXPERIMENTS, resolve_params
from tsvf_sim.twotime import CLASSICAL_RATIO_THRESHOLD, OVERLAP_DOMAIN
from helpers import basis_state, result_columns

HALF = 1.0 / math.sqrt(2.0)
PLUS = StateVector([HALF, HALF])


def model(alpha=0.6, beta=0.8, env_size=8, overlap=0.9, n_collapsed=0,
          gamma1=1.0, gamma2=0.0):
    return RobustnessModel(alpha=alpha, beta=beta, env_size=env_size, overlap=overlap,
                           n_collapsed=n_collapsed, gamma1=gamma1, gamma2=gamma2)


def test_model_validates_branch_weights():
    with pytest.raises(InvariantError):
        model(alpha=1.0, beta=1.0)


def _weak_estimate(g):
    return weak_estimate(TwoState(PLUS, PLUS), SIGMA_Z, g, 1.0, 10, np.random.default_rng(0))


KET3 = basis_state(3, 0)
IDENTITY3 = HermitianOperator(np.eye(3))


@pytest.mark.parametrize(("probe", "match"), [
    pytest.param(lambda: StateVector([math.nan, 0.0]).require_normalized("state"),
                 "state must be normalized", id="nan-state"),
    pytest.param(lambda: model(alpha=math.nan, beta=1.0),
                 "must equal 1 within 1e-12", id="nan-alpha"),
    pytest.param(lambda: model(env_size=8.5), "env_size must be an int", id="fractional-env_size"),
    pytest.param(lambda: model(n_collapsed=1.5, gamma1=0.9, gamma2=0.9),
                 "n_collapsed must be an int", id="fractional-n_collapsed"),
    pytest.param(lambda: log_robustness_ratio(model(alpha=1.0, beta=0.0, env_size=10 ** 400)),
                 "must fit in a float", id="env_size-beyond-floats"),
    pytest.param(lambda: core_decay(math.nan, 1.0, 1.0),
                 "initial record size must be finite", id="nan-n0"),
    pytest.param(lambda: core_decay(1.0, 1.0, math.nan), "time must be finite", id="nan-t"),
    pytest.param(lambda: core_decay(1.0, math.inf, 1.0),
                 "decay time constant must be finite", id="inf-time_constant"),
    pytest.param(lambda: classical_threshold(0, 0.9, 1.0, 0.0, math.nan),
                 "ratio_target must be finite", id="nan-target"),
    pytest.param(lambda: HermitianOperator([[math.inf, 0.0], [0.0, 1.0]]),
                 "operator entries must be finite", id="inf-entry"),
    pytest.param(lambda: ReadoutDensity(means=[math.inf], weights=[1.0], sigma=1.0),
                 r"at most 1e\+150 sigma", id="inf-mean"),
    pytest.param(lambda: ReadoutDensity(means=[0.0], weights=[math.inf], sigma=1.0),
                 "readout weights must be finite", id="inf-weight"),
    pytest.param(lambda: ReadoutDensity(means=[0.0], weights=[1.0], sigma=math.inf),
                 "pointer sigma must be finite", id="inf-sigma"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=math.nan, sigma=1.0),
                 "coupling g must be finite", id="nan-g"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=math.inf, sigma=1.0),
                 "coupling g must be finite", id="inf-g"),
    pytest.param(lambda: _weak_estimate(math.nan),
                 "coupling g must be finite", id="weak_estimate-nan-g"),
    pytest.param(lambda: _weak_estimate(math.inf),
                 "coupling g must be finite", id="weak_estimate-inf-g"),
    # Finite pointer scales whose squares or quotients would overflow.
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=1e300, sigma=1.0, post=PLUS),
                 r"at most 1e\+150 sigma", id="huge-g-post"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=1e300, sigma=1.0),
                 r"at most 1e\+150 sigma", id="huge-g"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=1.0, sigma=1e-300, post=PLUS),
                 "pointer sigma must be finite", id="tiny-sigma-post"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=1.0, sigma=1e200, post=PLUS),
                 "pointer sigma must be finite", id="huge-sigma-post"),
    pytest.param(lambda: ReadoutDensity(means=[0.0], weights=[1.0], sigma=1e300).pdf(0.0),
                 "pointer sigma must be finite", id="huge-sigma-pdf"),
    pytest.param(lambda: ReadoutDensity(means=[0.0], weights=[1.0], sigma=1.0).pdf([0.0, math.nan]),
                 "readings q must be finite", id="nan-reading"),
    pytest.param(lambda: ReadoutDensity(means=[0.0], weights=[1.0], sigma=1.0).pdf(math.inf),
                 "readings q must be finite", id="inf-reading"),
    # One case for each validator that no other test reaches in process.
    pytest.param(lambda: EnsembleSpec(()), "at least one group", id="empty-ensemble"),
    pytest.param(lambda: commute_on_state(SIGMA_Z, IDENTITY3, PLUS),
                 "operator dims differ", id="commute_on_state-dims"),
    pytest.param(lambda: average_operator_residual(IDENTITY3, EnsembleSpec(((PLUS, 2),))),
                 "operator dim 3 != ensemble copy dim 2", id="average_operator_residual-dims"),
    pytest.param(lambda: brute_force_average(IDENTITY3, EnsembleSpec(((PLUS, 2),))),
                 "operator dim 3 != ensemble copy dim 2", id="brute_force_average-dims"),
    pytest.param(lambda: HermitianOperator([[1.0, 0.0]]), "square matrix", id="non-square"),
    pytest.param(lambda: SIGMA_Z.apply(KET3), "operator dim 2 != state dim 3", id="apply-dims"),
    pytest.param(lambda: TwoState(PLUS, KET3),
                 "forward dim 2 != backward dim 3", id="two-state-dims"),
    pytest.param(lambda: average_spin_commutator(0),
                 "the spin count must be an int", id="zero-spins"),
    # Values that are not numbers at all.
    pytest.param(lambda: core_decay("1", 1.0, 1.0),
                 "initial record size must be finite", id="string-n0"),
    pytest.param(lambda: classical_threshold(0, 0.9, 1.0, 0.0, "1e6"),
                 "ratio_target must be finite", id="string-target"),
    pytest.param(lambda: ReadoutDensity(means=[0.0], weights=[1.0], sigma="1"),
                 "pointer sigma must be finite", id="string-sigma"),
    pytest.param(lambda: model(overlap="0.5"), "overlap must be finite", id="string-overlap"),
    pytest.param(lambda: model(alpha="x", beta=1.0),
                 "alpha and beta must be numbers", id="string-alpha"),
    pytest.param(lambda: model(alpha=np.array([1.0, 0.0]), beta=0.0),
                 "alpha and beta must be numbers", id="array-alpha"),
    pytest.param(lambda: model(alpha=np.array([1.0]), beta=0.0),
                 "alpha and beta must be numbers", id="one-entry-array-alpha"),
    pytest.param(lambda: EnsembleSpec(((PLUS, 2), (object(), 1))),
                 "must be a StateVector", id="non-state-group"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g=None, sigma=1.0),
                 "coupling g must be finite", id="none-g"),
    pytest.param(lambda: readout_density(PLUS, SIGMA_Z, g="0.1", sigma=1.0),
                 "coupling g must be finite", id="string-g"),
])
def test_library_checks_reject_nan_and_non_integers(probe, match):
    # Warnings are errors in this suite, so a numpy RuntimeWarning fails too.
    with pytest.raises(InvariantError, match=match):
        probe()


def test_model_requires_core():
    with pytest.raises(InvariantError):
        model(env_size=5, n_collapsed=5)


def test_model_rejects_orthogonal_collapse():
    with pytest.raises(InvariantError, match="gamma1 = 0 would make a collapse orthogonal"):
        model(n_collapsed=2, gamma1=0.0, gamma2=0.5)


def test_model_rejects_overlap_of_one():
    with pytest.raises(InvariantError):
        model(overlap=1.0)


def test_weighted_records_are_normalized():
    # The branches sit in orthogonal |k, k> blocks, so the dense state's norm
    # is that of all the weighted records together.
    for c in (0.0, 0.5, 0.9):
        for n_collapsed, gamma1, gamma2 in ((0, 1.0, 0.0), (2, 0.9, 0.6)):
            records = branches._records(model(overlap=c, env_size=4, n_collapsed=n_collapsed,
                                              gamma1=gamma1, gamma2=gamma2))
            assert all(len(record) == 2 ** 4 for _, _, record in records)
            weighted = [amplitude * r for _, amplitude, record in records for r in record]
            assert np.isclose(np.linalg.norm(weighted), 1.0, atol=1e-12)


def test_oracle_guards_reject_huge_records_at_once():
    # Both oracles build their records through the one guard in branches._records.
    start = time.perf_counter()
    with pytest.raises(InvariantError, match=r"full state dim 2\^1000000002 exceeds 2\^14"):
        select_by_final(model(env_size=10 ** 9), "I")
    with pytest.raises(InvariantError, match=r"full state dim 2\^1000000002 exceeds 2\^14"):
        brute_force_ratio(model(env_size=10 ** 9, n_collapsed=2, gamma1=0.9, gamma2=0.9))
    assert time.perf_counter() - start < 1.0


def _kron_reference(m):
    """The dense state as np.kron builds it, from the model's parameters alone.

    An independent reference for the branch records: particle (x) pointer (x)
    record in row-major order, with numpy doing the complex products.
    """
    ket = np.eye(2, dtype=complex)
    amps = np.zeros(2 ** (m.env_size + 2), dtype=complex)
    for k, (amplitude, gamma, overlap) in enumerate(
        ((m.alpha, m.gamma1, 1.0), (m.beta, m.gamma2, m.overlap))
    ):
        if amplitude == 0:
            continue
        vec = np.kron(ket[k], ket[k])
        for q, count in ((gamma, m.n_collapsed), (overlap, m.env_size - m.n_collapsed)):
            factor = np.array([q, math.sqrt(1.0 - q * q)], dtype=complex)
            for _ in range(count):
                vec = np.kron(vec, factor)
        amps += complex(amplitude) * vec
    return amps


def _vdot_ratio(m):
    """Robustness ratio from np.vdot projections of the reference state."""
    state = _kron_reference(m)
    ket = np.eye(2, dtype=complex)
    record_e1 = np.ones(1, dtype=complex)
    for _ in range(m.env_size):
        record_e1 = np.kron(record_e1, ket[0])
    wrong_pointer = ket[0] if m.n_collapsed == 0 else ket[1]
    amp_right = np.vdot(np.kron(np.kron(ket[0], ket[0]), record_e1), state)
    amp_wrong = np.vdot(np.kron(np.kron(ket[1], wrong_pointer), record_e1), state)
    p_right = abs(amp_right) ** 2 / abs(m.alpha) ** 2 if m.alpha != 0 else 0.0
    p_wrong = abs(amp_wrong) ** 2 / abs(m.beta) ** 2 if m.beta != 0 else 0.0
    return float("inf") if p_wrong == 0.0 else float(p_right / p_wrong)


@pytest.mark.parametrize("env_size", [1, 4, 12])
@pytest.mark.parametrize("c", [0.0, 0.5, 0.9])
def test_records_equal_the_kron_reference(c, env_size):
    # Row 2 * particle + pointer of the reference is its |particle, pointer>
    # block; branch k fills block |k, k> and every other block is zero.
    for alpha in (1.0, 0.6):
        for gamma2 in (0.0, 0.6):
            for n in sorted({0, 1, env_size - 1}):
                if n >= env_size:
                    continue
                m = model(alpha=alpha, beta=math.sqrt(1.0 - alpha * alpha), env_size=env_size,
                          overlap=c, n_collapsed=n, gamma1=0.9, gamma2=gamma2)
                blocks = _kron_reference(m).reshape(4, 2 ** env_size)
                filled = []
                for k, amplitude, record in branches._records(m):
                    assert np.array_equal(amplitude * np.array(record), blocks[3 * k])
                    filled.append(3 * k)
                assert not np.delete(blocks, filled, axis=0).any()


def test_brute_force_ratio_equals_vdot_on_the_reference():
    rng = np.random.default_rng(1515)

    def sometimes_zero(value):
        return 0.0 if rng.random() < 0.1 else float(value)

    finite = 0
    for _ in range(200):
        env_size = int(rng.integers(1, 13))
        theta = sometimes_zero(rng.uniform(0.0, math.pi / 2))
        m = model(alpha=math.cos(theta), beta=math.sin(theta), env_size=env_size,
                  overlap=sometimes_zero(rng.random()),
                  n_collapsed=int(rng.integers(0, env_size)),
                  gamma1=float(rng.uniform(0.01, 1.0)),
                  gamma2=sometimes_zero(rng.random()))
        ratio = brute_force_ratio(m)
        assert ratio == _vdot_ratio(m)
        finite += math.isfinite(ratio)
    assert finite >= 100


def reduced_particle_pointer(m):
    """Particle-pointer density matrix with the record traced out."""
    a = _kron_reference(m).reshape(4, -1)
    return a @ a.conj().T


def test_orthogonal_environment_decoheres_pointer():
    # with c = 0 the reduced particle-pointer state is exactly diagonal:
    # the environment has selected the branch basis.
    m = model(overlap=0.0, env_size=3)
    rho = reduced_particle_pointer(m)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.36   # |particle 0, reading I>
    expected[3, 3] = 0.64   # |particle 1, reading II>
    assert np.allclose(rho, expected, atol=1e-12)


def test_partial_environment_overlap_leaves_coherence():
    m = model(overlap=0.9, env_size=3)
    rho = reduced_particle_pointer(m)
    assert np.isclose(rho[0, 3], 0.6 * 0.8 * 0.9 ** 3, atol=1e-12)


def test_select_by_final_right_reading_is_certain():
    p_right, p_wrong = select_by_final(model(), "I")
    assert p_wrong == 0.0
    assert np.isclose(p_right, 0.36, atol=1e-12)
    assert p_right / (p_right + p_wrong) == 1.0


def test_select_by_final_reading_two():
    p_right, p_wrong = select_by_final(model(), "II")
    assert p_wrong == 0.0
    assert np.isclose(p_right, 0.64, atol=1e-12)


@pytest.mark.parametrize("env_size", [1, 4, 12])
@pytest.mark.parametrize("c", [0.0, 0.5, 0.9])
def test_select_by_final_projects_the_dense_state(c, env_size):
    m = model(overlap=c, env_size=env_size)
    for reading, weight in (("I", 0.36), ("II", 0.64)):
        p_right, p_wrong = select_by_final(m, reading)
        assert p_wrong == 0.0
        assert abs(p_right - weight) < 1e-12


def test_select_by_final_rejects_unknown_reading():
    with pytest.raises(InvariantError):
        select_by_final(model(), "III")


def test_select_by_final_oracle_bound():
    with pytest.raises(InvariantError, match=r"full state dim 2\^15 exceeds 2\^14"):
        select_by_final(model(env_size=13), "I")


def test_select_by_final_empty_branch_is_inconsistent():
    with pytest.raises(InvariantError, match="no forward branch carries reading I;"):
        select_by_final(model(alpha=0.0, beta=1.0), "I")


def test_select_by_final_requires_uncollapsed_model():
    with pytest.raises(InvariantError):
        select_by_final(model(n_collapsed=2, gamma1=0.9, gamma2=0.5), "I")


def test_robustness_ratio_reference_value():
    m = model(alpha=HALF, beta=HALF, env_size=20, overlap=0.9, n_collapsed=5,
              gamma1=0.9, gamma2=0.9)
    assert np.isclose(robustness_ratio(m), 0.9 ** -30, atol=1e-10)
    assert abs(robustness_ratio(m) - 23.59) < 0.01


def test_robustness_ratio_orthogonal_core_diverges():
    m = model(overlap=0.0, env_size=8, n_collapsed=2, gamma1=0.9, gamma2=0.5)
    assert robustness_ratio(m) == float("inf")


def test_robustness_ratio_orthogonal_wrong_collapse_diverges():
    m = model(env_size=8, n_collapsed=2, gamma1=0.9, gamma2=0.0)
    assert robustness_ratio(m) == float("inf")


def test_robustness_ratio_log_domain_large_records():
    m = model(alpha=HALF, beta=HALF, env_size=10_000, overlap=0.99, n_collapsed=100,
              gamma1=0.9, gamma2=0.9)
    assert np.isclose(log_robustness_ratio(m), -2.0 * 9_900 * math.log(0.99), atol=1e-9)
    huge = model(alpha=HALF, beta=HALF, env_size=10 ** 9, overlap=0.9,
                 n_collapsed=0)
    assert robustness_ratio(huge) == float("inf")  # overflow maps to +inf
    assert log_robustness_ratio(huge) >= math.log(CLASSICAL_RATIO_THRESHOLD)


@pytest.mark.parametrize(("gamma2", "expected"), [
    # Record term +inf, collapse term -inf: the true log ratio is about -9.2e308.
    (0.9, -math.inf),
    # n ln(gamma1) - n ln(gamma2) is itself -inf - (-inf); the true log ratio
    # is about 2 (-2.3e308 + 4.6e307), below the float range too.
    (1e-299, -math.inf),
])
def test_log_ratio_of_opposite_infinite_terms_is_not_nan(gamma2, expected):
    m = model(alpha=1.0, beta=0.0, env_size=10 ** 306 + 10 ** 308, overlap=0.1,
              n_collapsed=10 ** 306 if gamma2 == 0.9 else 10 ** 308 - 10 ** 307,
              gamma1=1e-300, gamma2=gamma2)
    assert log_robustness_ratio(m) == expected
    assert robustness_ratio(m) == 0.0


def test_log_ratio_of_opposite_infinite_terms_can_be_finite():
    # n ln(gamma1) and n ln(gamma2) both overflow to -inf, but gamma1 = gamma2,
    # so only the single remaining record qubit counts: ratio 1 / c^2.
    m = model(alpha=1.0, beta=0.0, env_size=10 ** 307 + 1, overlap=0.9,
              n_collapsed=10 ** 307, gamma1=1e-300, gamma2=1e-300)
    assert log_robustness_ratio(m) == -2.0 * math.log(0.9)
    # A record term of +inf against a collapse term of -inf whose sum fits.
    m = model(alpha=1.0, beta=0.0, env_size=2 * 10 ** 307 + 10 ** 308, overlap=0.1,
              n_collapsed=10 ** 308, gamma1=1e-300, gamma2=1e-300)
    assert math.isclose(log_robustness_ratio(m), 2 * 10 ** 307 * -2.0 * math.log(0.1),
                        rel_tol=1e-15)
    # Only n ln(gamma1) overflows, to -inf; the true log ratio is about
    # 2 (5e307 - 1.9e308 + 1.79e308) = 7.8e307, so the ratio itself is +inf.
    m = model(alpha=1.0, beta=0.0, env_size=10 ** 308 + 5 * 10 ** 307, overlap=math.exp(-1),
              n_collapsed=10 ** 308, gamma1=math.exp(-1.9), gamma2=math.exp(-1.79))
    assert math.isclose(log_robustness_ratio(m), 7.8e307, rel_tol=1e-12)
    assert robustness_ratio(m) == math.inf


def test_robustness_ratio_monotonicity_grid():
    def ratio(env_size, n_collapsed, c):
        return robustness_ratio(
            model(env_size=env_size, overlap=c, n_collapsed=n_collapsed,
                  gamma1=0.9, gamma2=0.9)
        )

    assert ratio(10, 2, 0.9) < ratio(12, 2, 0.9) < ratio(14, 2, 0.9)
    assert ratio(10, 4, 0.9) < ratio(10, 2, 0.9) < ratio(10, 0, 0.9)
    assert ratio(10, 2, 0.95) < ratio(10, 2, 0.9) < ratio(10, 2, 0.8)


def test_log_ratio_linear_in_core_size():
    c = 0.85
    logs = [
        log_robustness_ratio(model(env_size=n, overlap=c, n_collapsed=3,
                                   gamma1=0.9, gamma2=0.9))
        for n in range(5, 15)
    ]
    diffs = np.diff(logs)
    assert np.allclose(diffs, -2.0 * math.log(c), atol=1e-9)


def test_brute_force_ratio_matches_closed_form():
    m = model(alpha=HALF, beta=HALF, env_size=8, overlap=0.9, n_collapsed=2,
              gamma1=0.9, gamma2=0.9)
    brute = brute_force_ratio(m)
    assert abs(brute - 0.9 ** -12) / (0.9 ** -12) < 1e-9
    assert abs(brute - robustness_ratio(m)) / robustness_ratio(m) < 1e-9


def test_brute_force_ratio_unequal_gammas():
    m = model(alpha=0.6, beta=0.8, env_size=7, overlap=0.8, n_collapsed=3,
              gamma1=0.9, gamma2=0.6)
    brute = brute_force_ratio(m)
    assert abs(brute - robustness_ratio(m)) / robustness_ratio(m) < 1e-9


def test_brute_force_ratio_uncollapsed_pointer_is_exact():
    assert brute_force_ratio(model(env_size=8)) == float("inf")


def test_brute_force_ratio_orthogonal_core():
    m = model(env_size=8, overlap=0.0, n_collapsed=2, gamma1=0.9, gamma2=0.5)
    assert brute_force_ratio(m) == float("inf")


def test_brute_force_ratio_gives_no_number_where_a_weight_underflows():
    # gamma = 1e-170 puts |amplitude|^2 near 1e-340, below the smallest float,
    # though no factor of it is zero; the closed form still reads 4.
    m = model(alpha=HALF, beta=HALF, env_size=2, overlap=0.5, n_collapsed=1,
              gamma1=1e-170, gamma2=1e-170)
    assert robustness_ratio(m) == 4.0
    assert brute_force_ratio(m) is None
    # A zero factor makes the wrong weight exactly zero, not an underflow.
    assert brute_force_ratio(model(alpha=HALF, beta=HALF, env_size=2, overlap=0.0,
                                   n_collapsed=1, gamma1=0.5, gamma2=1e-170)) == math.inf
    # |beta|^2 underflows too, but beta's branch weight divides out exactly.
    assert brute_force_ratio(model(alpha=1.0, beta=1e-170, env_size=2, overlap=0.0,
                                   n_collapsed=1, gamma1=0.5, gamma2=0.5)) == math.inf


# Overlaps whose powers underflow, or come near it, among ordinary ones.
_OVERLAPS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-170, 1e-100, 1e-30, 0.5, OVERLAP_DOMAIN[1]]),
    st.floats(*OVERLAP_DOMAIN),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(c=_OVERLAPS, gamma1=_OVERLAPS.filter(bool), gamma2=_OVERLAPS, n=st.integers(1, 5),
       env_sizes=st.sets(st.integers(0, 6), min_size=2))
@example(c=0.5, gamma1=1e-170, gamma2=1e-170, n=1, env_sizes={1, 2})
def test_robustness_brute_ratio_is_empty_or_agrees_with_ratio(c, gamma1, gamma2, n, env_sizes):
    exp = EXPERIMENTS["robustness"]
    sizes = ",".join(str(n + 1 + extra) for extra in sorted(env_sizes))
    params = resolve_params(exp, {"c": repr(c), "gamma1": repr(gamma1), "gamma2": repr(gamma2),
                                  "n": str(n), "env_sizes": sizes})
    _, _, _, ratios, oracles = result_columns(exp.runner(params, 0))
    for ratio, brute in zip(ratios, oracles):
        if brute is not None:
            assert brute == ratio or math.isclose(brute, ratio, rel_tol=1e-9), (ratio, brute)


def _traced_peak(oracle, *args) -> int:
    """Bytes at the tracemalloc peak of one oracle call."""
    tracemalloc.start()
    try:
        oracle(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_time_oracles_peak_below_a_quarter_mib_at_twelve_qubits():
    # Two real record vectors of 2^12 doubles take 64 KiB.
    collapsed = model(alpha=HALF, beta=HALF, env_size=12, n_collapsed=3, gamma1=0.9, gamma2=0.7)
    assert _traced_peak(brute_force_ratio, collapsed) < 0.25 * 2 ** 20
    assert _traced_peak(select_by_final, model(env_size=12), "I") < 0.25 * 2 ** 20


def test_brute_force_ratio_oracle_bound():
    with pytest.raises(InvariantError, match=r"full state dim 2\^15 exceeds 2\^14"):
        brute_force_ratio(model(env_size=13))


def test_core_decay_initial_value():
    assert core_decay(10 ** 6, 2.5, 0.0) == 10 ** 6


def test_core_decay_one_time_constant():
    assert np.isclose(core_decay(10 ** 6, 1.0, 1.0), 367879.44117144233, atol=1e-6)


def test_core_decay_derivative():
    n0, tau = 5000.0, 3.0
    h = 1e-6
    for t in (0.5, 2.0, 7.0):
        numeric = (core_decay(n0, tau, t + h) - core_decay(n0, tau, t - h)) / (2 * h)
        exact = -core_decay(n0, tau, t) / tau
        assert abs(numeric - exact) / abs(exact) < 1e-6


def test_core_decay_validates_inputs():
    with pytest.raises(InvariantError):
        core_decay(100.0, 0.0, 1.0)
    with pytest.raises(InvariantError):
        core_decay(100.0, 1.0, -1.0)


def test_classical_threshold_reference_case():
    n = classical_threshold(0, 0.9, 1.0, 0.0, 10 ** 6)
    assert n == 66
    below = robustness_ratio(model(env_size=65, overlap=0.9))
    at = robustness_ratio(model(env_size=66, overlap=0.9))
    assert below < 10 ** 6 <= at


def test_classical_threshold_trivial_target():
    assert classical_threshold(0, 0.9, 1.0, 0.0, 1.0) == 1
    assert classical_threshold(4, 0.9, 0.9, 0.5, 1.0) == 5


def test_classical_threshold_diverges_as_overlap_grows():
    loose = classical_threshold(0, 0.9, 1.0, 0.0, 10 ** 6)
    tight = classical_threshold(0, 0.99, 1.0, 0.0, 10 ** 6)
    tighter = classical_threshold(0, 0.999, 1.0, 0.0, 10 ** 6)
    assert loose < tight < tighter


def test_classical_threshold_brackets_on_grid():
    for c in (0.5, 0.8, 0.95):
        for n in (0, 2):
            for target in (10.0, 1e4, 1e6):
                size = classical_threshold(n, c, 0.9, 0.7, target)
                assert size > n
                at = robustness_ratio(
                    model(env_size=size, overlap=c, n_collapsed=n,
                          gamma1=0.9, gamma2=0.7)
                )
                assert at >= target
                if size - 1 > n:
                    below = robustness_ratio(
                        model(env_size=size - 1, overlap=c, n_collapsed=n,
                              gamma1=0.9, gamma2=0.7)
                    )
                    assert below < target


def test_classical_threshold_collapse_only_orthogonal_wrong_branch():
    # gamma2 = 0 wipes out the wrong branch entirely: any remaining core works
    assert classical_threshold(3, 0.9, 0.9, 0.0, 1e12) == 4


def _log_ratio(n, c, gamma1, gamma2, env_size):
    return log_robustness_ratio(
        model(env_size=env_size, overlap=c, n_collapsed=n, gamma1=gamma1, gamma2=gamma2)
    )


def _threshold_by_unit_steps(n, c, gamma1, gamma2, target):
    """Smallest N > n whose log ratio reaches log(target), one record qubit at a time."""
    log_target = math.log(target)
    first = _log_ratio(n, c, gamma1, gamma2, n + 1)
    if first == math.inf:
        return n + 1
    size = n + max(1, math.ceil((log_target - first) / (-2.0 * math.log(c)) + 1.0))
    while size - 1 > n and _log_ratio(n, c, gamma1, gamma2, size - 1) >= log_target:
        size -= 1
    while _log_ratio(n, c, gamma1, gamma2, size) < log_target:
        size += 1
    return size


def test_classical_threshold_matches_unit_step_search():
    rng = np.random.default_rng(70)
    for _ in range(300):
        n = int(rng.choice([0, 1, 5, rng.integers(0, 10 ** 4)]))
        c = float(rng.choice([rng.random(), 1.0 - 10.0 ** -rng.uniform(1, 15), 1.0 - 1e-15]))
        gamma1 = float(rng.choice([1.0, 0.5, rng.uniform(0.01, 1.0)]))
        gamma2 = float(rng.choice([0.0, 0.95, rng.uniform(0.0, 0.999)]))
        target = float(10.0 ** rng.uniform(-30, 30))
        assert classical_threshold(n, c, gamma1, gamma2, target) == \
            _threshold_by_unit_steps(n, c, gamma1, gamma2, target)


def test_classical_threshold_brackets_huge_collapse_quickly():
    args = (10 ** 99, 1.0 - 1e-15, 0.5, 0.95)
    start = time.perf_counter()
    size = classical_threshold(*args, 1e6)
    assert time.perf_counter() - start < 0.5
    assert _log_ratio(*args, size - 1) < math.log(1e6) <= _log_ratio(*args, size)


def test_classical_threshold_rejects_record_size_beyond_floats():
    # n * ln(gamma1) overflows to -inf, so no finite record size is found.
    with pytest.raises(InvariantError):
        classical_threshold(10 ** 307, 0.9, 1e-300, 0.5, 1e6)
    # The log ratio stays finite but below the target all the way to the cap.
    args = (10 ** 300, 0.9999999999999999, 1e-300, 0.9)
    cap = 10 ** 300 + int(sys.float_info.max)
    assert -math.inf < _log_ratio(*args, cap) < math.log(1e6)
    with pytest.raises(InvariantError, match="overflows a float"):
        classical_threshold(*args, 1e6)


def test_log_ratio_stays_finite_beyond_two_to_the_1023():
    # -2 * remaining alone would overflow there; scaling ln c by -2 first does not.
    size = 2 ** 1023 + 5
    log_ratio = log_robustness_ratio(model(alpha=1.0, beta=0.0, env_size=size))
    assert log_ratio == float(size) * (-2.0 * math.log(0.9))
    assert log_ratio == pytest.approx(1.894e307, rel=1e-3)


def test_classical_threshold_finds_a_record_beyond_two_to_the_1023():
    n = int(16e288)
    args = (n, 0.9999999999999999, 1e-300, 0.9)
    size = classical_threshold(*args, 1e6)
    assert size - n == pytest.approx(9.95e307, rel=1e-3)
    assert _log_ratio(*args, size - 1) < math.log(1e6) <= _log_ratio(*args, size)
