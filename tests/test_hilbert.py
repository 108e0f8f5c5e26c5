"""Tests for states, operators, eigenbranches and the dense-oracle bound."""

import math

import numpy as np
import pytest

from tsvf_sim import (
    SIGMA_Z,
    HermitianOperator,
    InvariantError,
    StateVector,
    inner,
    projector,
)
from tsvf_sim.errors import fits_oracle
from helpers import SIGMA_X, SIGMA_Y, basis_state, identity, random_hermitian, random_state

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
MINUS = StateVector(np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0))


def test_basis_state_amps():
    assert np.allclose(KET0.amps, [1, 0])
    assert np.allclose(basis_state(3, 2).amps, [0, 0, 1])


def test_state_requires_positive_dim():
    with pytest.raises(InvariantError, match="non-empty 1-d vector"):
        StateVector(np.array([], dtype=complex))


def test_normalize_unit_norm():
    raw = StateVector(np.array([3.0, 4.0], dtype=complex))
    assert np.isclose(raw.normalize().norm(), 1.0, atol=1e-12)


@pytest.mark.parametrize("amps", [[0.0, 0.0], [math.nan, 0.0], [math.inf, 0.0]],
                         ids=["zero", "nan", "inf"])
def test_normalize_rejects_zero_and_non_finite_vectors(amps):
    # Warnings are errors in this suite, so a numpy RuntimeWarning would fail too.
    with pytest.raises(InvariantError, match="cannot normalize"):
        StateVector(amps).normalize()


def test_amps_are_read_only():
    with pytest.raises(ValueError):
        KET0.amps[0] = 5.0


def test_inner_orthogonal():
    assert inner(KET0, KET1) == 0


def test_inner_plus_with_zero():
    assert np.isclose(inner(PLUS, KET0), 1.0 / math.sqrt(2.0), atol=1e-12)


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = random_state(4, rng)
        b = random_state(4, rng)
        assert np.isclose(inner(a, b), np.conj(inner(b, a)), atol=1e-12)


def test_inner_conjugate_linear_in_first_argument():
    a = StateVector(np.array([1j, 0], dtype=complex))
    b = KET0
    assert np.isclose(inner(a, b), -1j)


def test_inner_dimension_mismatch():
    with pytest.raises(InvariantError, match="inner product dims differ: 2 vs 3"):
        inner(KET0, basis_state(3, 0))


def eigensystem(op):
    """Eigenvalues and eigenvectors of op, one per column, from its branches."""
    eigenvalues, bases = op.branches
    return np.repeat(eigenvalues, [b.shape[1] for b in bases]), np.hstack(bases)


def test_eig_sigma_z():
    values, vectors = eigensystem(SIGMA_Z)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.isclose(abs(np.vdot(vectors[:, 0], KET1.amps)), 1.0, atol=1e-10)
    assert np.isclose(abs(np.vdot(vectors[:, 1], KET0.amps)), 1.0, atol=1e-10)


def test_eig_sigma_x():
    values, vectors = eigensystem(SIGMA_X)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.isclose(abs(np.vdot(vectors[:, 0], MINUS.amps)), 1.0, atol=1e-10)
    assert np.isclose(abs(np.vdot(vectors[:, 1], PLUS.amps)), 1.0, atol=1e-10)


def test_eig_reconstruction_dim6():
    rng = np.random.default_rng(10)
    op = random_hermitian(6, rng)
    values, vectors = eigensystem(op)
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.allclose(rebuilt, op.entries, atol=1e-9)


def test_eig_orthonormal_vectors():
    rng = np.random.default_rng(11)
    op = random_hermitian(5, rng)
    _, vectors = eigensystem(op)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(5), atol=1e-10)


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(InvariantError):
        HermitianOperator(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))


def test_expectation_real_on_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        op = random_hermitian(4, rng)
        psi = random_state(4, rng)
        value = op.expectation(psi)
        raw = np.vdot(psi.amps, op.entries @ psi.amps)
        assert abs(raw.imag) <= 1e-12
        assert np.isclose(value, raw.real, atol=1e-12)


def test_degenerate_branches_merge():
    op = HermitianOperator(np.diag([1.0, 1.0, -1.0]).astype(complex))
    eigenvalues, bases = op.branches
    assert len(eigenvalues) == len(bases) == 2
    assert bases[-1].shape[1] == 2


def test_projector_squares_to_itself():
    rng = np.random.default_rng(14)
    psi = random_state(3, rng)
    p = projector(psi)
    assert np.allclose(p.entries @ p.entries, p.entries, atol=1e-12)


def test_identity_expectation_is_one():
    rng = np.random.default_rng(15)
    psi = random_state(5, rng)
    assert np.isclose(identity(5).expectation(psi), 1.0, atol=1e-12)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X.entries @ SIGMA_Y.entries - SIGMA_Y.entries @ SIGMA_X.entries,
                       2j * SIGMA_Z.entries, atol=1e-12)


@pytest.mark.parametrize("dim,copies,fits", [
    (2, 14, True), (2, 15, False), (4, 7, True), (4, 8, False), (8, 4, True),
    (8, 5, False), (3, 8, True), (3, 9, False), (16384, 1, True), (16385, 1, False),
    (1, 10 ** 9, True), (2, 10 ** 9, False), (2, 10 ** 400, False),
])
def test_fits_oracle_compares_exponents_exactly(dim, copies, fits):
    assert fits_oracle(dim, copies) is fits
    if copies <= 64:
        assert fits_oracle(dim, copies) == (dim ** copies <= 2 ** 14)
