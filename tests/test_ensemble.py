"""Tests for deterministic operators and ensemble-averaged observables."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from tsvf_sim import ensemble
from tsvf_sim import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionError,
    EnsembleSpec,
    HermitianOperator,
    InvariantError,
    StateVector,
    TooLargeForOracle,
    average_operator_residual,
    average_spin_commutator,
    basis_state,
    brute_force_average,
    brute_force_spin_commutator,
    commute_on_state,
    decompose,
    deterministic_basis,
    inner,
    projector,
    random_hermitian,
    random_state,
)

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
    with pytest.raises(TooLargeForOracle):
        brute_force_average(SIGMA_Z, EnsembleSpec(((PLUS, 15),)))


def test_brute_force_oracle_rejects_huge_ensemble_at_once():
    start = time.perf_counter()
    with pytest.raises(TooLargeForOracle):
        brute_force_average(SIGMA_Z, EnsembleSpec(((PLUS, 10 ** 9),)))
    assert time.perf_counter() - start < 1.0


def _site_by_site(op_entries, block, dim, n):
    """Reference for ensemble._site_average: (1/N) sum_i A_i, one site at a time."""
    total = np.zeros(block.shape, dtype=np.result_type(op_entries, block))
    for site in range(n):
        cube = block.reshape(dim ** site, dim, -1)
        total += np.matmul(op_entries, cube).reshape(block.shape)
    return total / n


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("columns", [None, 5], ids=["vector", "block"])
def test_site_average_matches_site_by_site_loop(dim, n, columns):
    # A real 2x2 operator on real vectors, a general complex 3x3 one on complex vectors.
    rng = np.random.default_rng(100 * dim + n)
    shape = (dim ** n,) if columns is None else (dim ** n, columns)
    op_entries = rng.standard_normal((dim, dim))
    block = rng.standard_normal(shape)
    if dim == 3:
        op_entries = op_entries + 1j * rng.standard_normal((dim, dim))
        block = block + 1j * rng.standard_normal(shape)
    averaged = ensemble._site_average(op_entries, dim, n)(block)
    reference = _site_by_site(op_entries, block, dim, n)
    assert averaged.shape == block.shape and averaged.dtype == reference.dtype
    np.testing.assert_allclose(averaged, reference, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_site_sum_reuses_a_single_site_operator(dim):
    op_entries = np.arange(dim * dim, dtype=float).reshape(dim, dim)
    assert ensemble._site_sum(op_entries, dim, 1) is op_entries


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


def test_spin_commutator_real_split_rejects_sigma_y_with_real_part(monkeypatch):
    mixed = HermitianOperator((SIGMA_X.entries + SIGMA_Y.entries) / math.sqrt(2.0))
    monkeypatch.setattr(ensemble, "SIGMA_Y", mixed)
    with pytest.raises(InvariantError):
        brute_force_spin_commutator(3)


def test_spin_commutator_memory_stays_below_dense_matrices():
    # Three dense 2^11 x 2^11 complex matrices and their products peak above
    # 450 MiB; the blockwise oracle peaks at 4 MiB in float64 with 32-column blocks.
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


def test_ensemble_spec_validates_dims():
    with pytest.raises(DimensionError):
        EnsembleSpec(((PLUS, 1), (basis_state(3, 0), 1)))
