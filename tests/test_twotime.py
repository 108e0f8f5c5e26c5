"""Tests for the amplified-record model: branches, final boundaries, collapse."""

import math
import time

import numpy as np
import pytest

from tsvf_sim import (
    InvariantError,
    NoConsistentHistory,
    OrthogonalCollapseForbidden,
    RobustnessModel,
    TooLargeForOracle,
    brute_force_ratio,
    classical_threshold,
    core_decay,
    forward_chain,
    full_state,
    log_robustness_ratio,
    record_factor_i,
    record_factor_ii,
    robustness_ratio,
    select_by_final,
)
from tsvf_sim.twotime import CLASSICAL_RATIO_THRESHOLD

HALF = 1.0 / math.sqrt(2.0)


def model(alpha=0.6, beta=0.8, env_size=8, overlap=0.9, n_collapsed=0,
          gamma1=1.0, gamma2=0.0):
    return RobustnessModel(alpha=alpha, beta=beta, env_size=env_size, overlap=overlap,
                           n_collapsed=n_collapsed, gamma1=gamma1, gamma2=gamma2)


def test_model_validates_branch_weights():
    with pytest.raises(InvariantError):
        model(alpha=1.0, beta=1.0)


def test_model_requires_core():
    with pytest.raises(InvariantError):
        model(env_size=5, n_collapsed=5)


def test_model_rejects_orthogonal_collapse():
    with pytest.raises(OrthogonalCollapseForbidden):
        model(n_collapsed=2, gamma1=0.0, gamma2=0.5)


def test_model_rejects_overlap_of_one():
    with pytest.raises(InvariantError):
        model(overlap=1.0)


def test_forward_chain_two_branches():
    chain = forward_chain(model())
    assert [b.label for b in chain] == ["I", "II"]
    assert np.isclose(chain[0].amplitude, 0.6)
    assert np.isclose(chain[1].amplitude, 0.8)
    assert np.isclose(np.vdot(chain[0].particle, chain[1].particle), 0.0, atol=1e-12)


def test_forward_chain_definite_outcome_single_branch():
    chain = forward_chain(model(alpha=1.0, beta=0.0))
    assert len(chain) == 1
    assert chain[0].label == "I"


def test_record_factor_overlap():
    m = model(overlap=0.9)
    assert np.isclose(np.vdot(record_factor_i(), record_factor_ii(m)), 0.9, atol=1e-12)


def test_full_state_is_normalized():
    for c in (0.0, 0.5, 0.9):
        for n_collapsed, gamma1, gamma2 in ((0, 1.0, 0.0), (2, 0.9, 0.6)):
            psi = full_state(model(overlap=c, env_size=4, n_collapsed=n_collapsed,
                                   gamma1=gamma1, gamma2=gamma2))
            assert len(psi) == 2 ** 6
            assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-12)


def test_full_state_oracle_bound():
    with pytest.raises(TooLargeForOracle):
        full_state(model(env_size=13))


def test_oracle_guards_reject_huge_records_at_once():
    huge = model(env_size=10 ** 9, n_collapsed=2, gamma1=0.9, gamma2=0.9)
    start = time.perf_counter()
    for oracle in (full_state, brute_force_ratio):
        with pytest.raises(TooLargeForOracle):
            oracle(huge)
    assert time.perf_counter() - start < 1.0


def _kron_reference(m):
    """The dense state as np.kron builds it, from the model's parameters alone.

    An independent reference for full_state: particle (x) pointer (x) record
    in row-major order, with numpy doing the complex products.
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
def test_full_state_equals_the_kron_reference(c, env_size):
    for alpha in (1.0, 0.6):
        for gamma2 in (0.0, 0.6):
            for n in sorted({0, 1, env_size - 1}):
                if n >= env_size:
                    continue
                m = model(alpha=alpha, beta=math.sqrt(1.0 - alpha * alpha), env_size=env_size,
                          overlap=c, n_collapsed=n, gamma1=0.9, gamma2=gamma2)
                state = full_state(m)
                assert len(state) == 2 ** (env_size + 2)
                assert np.array_equal(np.array(state), _kron_reference(m))


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
    a = np.array(full_state(m)).reshape(4, -1)
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
    with pytest.raises(TooLargeForOracle):
        select_by_final(model(env_size=13), "I")


def test_select_by_final_empty_branch_is_inconsistent():
    with pytest.raises(NoConsistentHistory):
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


def test_brute_force_ratio_oracle_bound():
    with pytest.raises(TooLargeForOracle):
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
    n = classical_threshold(0, 0.9, 1.0, 1.0, 10 ** 6)
    assert n == 66
    below = robustness_ratio(model(env_size=65, overlap=0.9))
    at = robustness_ratio(model(env_size=66, overlap=0.9))
    assert below < 10 ** 6 <= at


def test_classical_threshold_trivial_target():
    assert classical_threshold(0, 0.9, 1.0, 1.0, 1.0) == 1
    assert classical_threshold(4, 0.9, 0.9, 0.5, 1.0) == 5


def test_classical_threshold_diverges_as_overlap_grows():
    loose = classical_threshold(0, 0.9, 1.0, 1.0, 10 ** 6)
    tight = classical_threshold(0, 0.99, 1.0, 1.0, 10 ** 6)
    tighter = classical_threshold(0, 0.999, 1.0, 1.0, 10 ** 6)
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
