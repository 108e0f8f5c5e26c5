"""Ensemble-average observables and deterministic operators.

For a single copy, an observable splits as A|psi> = abar|psi> + delta|perp>
with abar the expectation value and delta the uncertainty. Averaging one-copy
observables over a product ensemble of N copies leaves an operator whose
residual (non-determinism) on the product state shrinks as 1/sqrt(N), while
averaged spin components commute up to a 1/N-suppressed remainder. Operators
with delta = 0 are deterministic for the state, and the set of deterministic
operators is large: (d-1)^2 + 1 linearly independent ones in dimension d.

Spin components carry the explicit 1/2 factor (hbar = 1), e.g. S_z = sigma_z/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvariantError, TooLargeForOracle
from .hilbert import (
    ATOL_EXACT,
    ORACLE_MAX_QUBITS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HermitianOperator,
    StateVector,
    fits_oracle,
    projector,
)

DETERMINISTIC_TOL = 1e-10
# Uncertainty below this counts as zero and no perpendicular component is reported.
DELTA_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split A|psi> = abar|psi> + delta|perp> for one state."""

    abar: float
    delta: float
    perp: StateVector | None


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Product ensemble: groups of identical copies, (state, count) per group."""

    groups: tuple[tuple[StateVector, int], ...]

    def __post_init__(self):
        if not self.groups:
            raise InvariantError("ensemble needs at least one group")
        norm_groups = []
        dim = None
        for state, count in self.groups:
            if not isinstance(count, (int, np.integer)) or count < 1:
                raise InvariantError(f"group count must be a positive integer, got {count!r}")
            if dim is None:
                dim = state.dim
            elif state.dim != dim:
                raise DimensionError("all ensemble groups must share one copy dimension")
            norm_groups.append((state, int(count)))
        object.__setattr__(self, "groups", tuple(norm_groups))

    @property
    def size(self) -> int:
        return sum(count for _, count in self.groups)

    @property
    def dim(self) -> int:
        return self.groups[0][0].dim


@dataclass(frozen=True, eq=False)
class FluctuationResult:
    """Monte Carlo averages for an ensemble of independently perturbed copies."""

    abar_mean: float
    residual_mean: float


def decompose(op: HermitianOperator, psi: StateVector) -> Decomposition:
    """Decompose the action of op on a normalized state."""
    abar = op.expectation(psi)
    residual = op.apply(psi) - abar * psi.amps
    delta = float(np.linalg.norm(residual))
    perp = StateVector(residual / delta) if delta > DELTA_FLOOR else None
    return Decomposition(abar=abar, delta=delta, perp=perp)


def is_deterministic(
    op: HermitianOperator, psi: StateVector, tol: float = DETERMINISTIC_TOL
) -> bool:
    """True when psi is an eigenstate of op within tol, i.e. delta <= tol."""
    return decompose(op, psi).delta <= tol


def deterministic_basis(psi: StateVector) -> tuple[HermitianOperator, ...]:
    """A maximal independent set of operators deterministic for psi.

    Returns (d-1)^2 + 1 Hermitian operators: the projector onto psi plus a
    real-linear basis of the Hermitian operators supported on the orthogonal
    complement (each annihilates psi, eigenvalue 0). Real linear combinations
    stay deterministic, and any two members commute on psi exactly.
    """
    if abs(psi.norm() - 1.0) > ATOL_EXACT:
        raise InvariantError("deterministic_basis requires a normalized state")
    d = psi.dim
    ops = [projector(psi)]
    # Orthonormal basis of the complement: QR of [psi | I] puts psi (up to
    # phase) in the first column and completes it to a unitary.
    q, _ = np.linalg.qr(np.column_stack([psi.amps, np.eye(d, dtype=complex)]))
    comp = q[:, 1:]
    for k in range(d - 1):
        vk = comp[:, k]
        ops.append(HermitianOperator(np.outer(vk, vk.conj())))
    for k in range(d - 1):
        for l in range(k + 1, d - 1):
            vk, vl = comp[:, k], comp[:, l]
            cross = np.outer(vk, vl.conj())
            ops.append(HermitianOperator(cross + cross.conj().T))
            ops.append(HermitianOperator(1j * (cross - cross.conj().T)))
    return tuple(ops)


def commute_on_state(
    a: HermitianOperator, b: HermitianOperator, psi: StateVector
) -> float:
    """Norm of [A, B]|psi>; zero means A and B commute on this state."""
    if a.dim != b.dim:
        raise DimensionError(f"operator dims differ: {a.dim} vs {b.dim}")
    ab = a.entries @ b.apply(psi)
    ba = b.entries @ a.apply(psi)
    return float(np.linalg.norm(ab - ba))


def average_operator_residual(
    op: HermitianOperator, spec: EnsembleSpec
) -> tuple[float, float]:
    """Ensemble mean and residual of the averaged operator (1/N) sum_i A_i.

    On the product state the averaged operator acts as abar_ens plus a
    remainder of norm sqrt(sum_g N_g delta_g^2)/N; for N identical copies that
    is delta/sqrt(N). Closed form, valid for arbitrarily large counts.
    """
    if op.dim != spec.dim:
        raise DimensionError(f"operator dim {op.dim} != ensemble copy dim {spec.dim}")
    total = spec.size
    abar_sum = 0.0
    var_sum = 0.0
    for state, count in spec.groups:
        dec = decompose(op, state)
        abar_sum += count * dec.abar
        var_sum += count * dec.delta ** 2
    return abar_sum / total, float(np.sqrt(var_sum)) / total


def _apply_at_site(op_entries: np.ndarray, amps: np.ndarray, site: int, dim: int, n: int) -> np.ndarray:
    pre = dim ** site
    post = dim ** (n - site - 1)
    cube = amps.reshape(pre, dim, post)
    return np.einsum("ab,pbq->paq", op_entries, cube).reshape(-1)


def brute_force_average(
    op: HermitianOperator, spec: EnsembleSpec
) -> tuple[float, float]:
    """Full product-space oracle for average_operator_residual.

    Builds the complete d^N product state and applies (1/N) sum_i A_i site by
    site, with no closed-form shortcuts. Guarded by d^N <= 2^14.
    """
    if op.dim != spec.dim:
        raise DimensionError(f"operator dim {op.dim} != ensemble copy dim {spec.dim}")
    d, n = spec.dim, spec.size
    if not fits_oracle(d, n):
        raise TooLargeForOracle(f"product dimension {d}^{n} exceeds 2^{ORACLE_MAX_QUBITS}")
    full = np.ones(1, dtype=complex)
    for state, count in spec.groups:
        for _ in range(count):
            full = np.kron(full, state.amps)
    averaged = np.zeros_like(full)
    for site in range(n):
        averaged += _apply_at_site(op.entries, full, site, d, n)
    averaged /= n
    abar = float(np.real(np.vdot(full, averaged)))
    residual = float(np.linalg.norm(averaged - abar * full))
    return abar, residual


def average_spin_commutator(n: int) -> float:
    """Scale of [Sx_avg, Sy_avg] = i Sz_avg / N for N spin-1/2 copies.

    The commutator of the averaged spin components equals the averaged Sz with
    one extra 1/N suppression; its largest eigenvalue magnitude is 1/(2N).
    Closed form, any N >= 1.
    """
    if n < 1:
        raise InvariantError("need at least one spin")
    return 1.0 / (2.0 * n)


def brute_force_spin_commutator(n: int) -> tuple[float, float]:
    """Dense-matrix oracle for the averaged-spin commutator identity.

    Materializes Sx_avg, Sy_avg, Sz_avg on the full 2^N space, returns the
    scale max|eig(Sz_avg)|/N together with the worst entrywise deviation of
    [Sx_avg, Sy_avg] from i Sz_avg / N.
    """
    if n < 1:
        raise InvariantError("need at least one spin")
    if n > 12:
        raise TooLargeForOracle("dense spin oracle is limited to 12 spins")
    dim = 2 ** n
    components = []
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        single = 0.5 * sigma.entries
        total = np.zeros((dim, dim), dtype=complex)
        for site in range(n):
            total += np.kron(
                np.kron(np.eye(2 ** site), single), np.eye(2 ** (n - site - 1))
            )
        components.append(total / n)
    sx, sy, sz = components
    comm = sx @ sy - sy @ sx
    identity_error = float(np.max(np.abs(comm - 1j * sz / n)))
    value = float(np.max(np.abs(np.linalg.eigvalsh(sz)))) / n
    return value, identity_error


def fluctuation_robustness(
    op: HermitianOperator,
    psi: StateVector,
    noise_scale: float,
    copies: int,
    trials: int,
    rng: np.random.Generator,
) -> FluctuationResult:
    """Ensemble averages when every copy is independently perturbed.

    Each copy becomes normalize(psi + dpsi) with dpsi drawn per component as a
    uniform magnitude up to noise_scale times a random phase. Returns the mean
    over trials of the perturbed ensemble expectation and of the closed-form
    residual sqrt(sum_i delta_i^2)/N.
    """
    if noise_scale < 0.0:
        raise InvariantError("noise_scale must be non-negative")
    if copies < 1 or trials < 1:
        raise InvariantError("copies and trials must be at least 1")
    if op.dim != psi.dim:
        raise DimensionError(f"operator dim {op.dim} != state dim {psi.dim}")
    d = psi.dim
    abar_means = np.empty(trials)
    residuals = np.empty(trials)
    for t in range(trials):
        mags = rng.uniform(0.0, noise_scale, size=(copies, d))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(copies, d))
        perturbed = psi.amps[None, :] + mags * np.exp(1j * phases)
        perturbed /= np.linalg.norm(perturbed, axis=1, keepdims=True)
        applied = perturbed @ op.entries.T  # row i holds (A psi_i)^T
        abar_i = np.real(np.sum(perturbed.conj() * applied, axis=1))
        second = np.real(np.sum(applied.conj() * applied, axis=1))
        var_i = np.maximum(second - abar_i ** 2, 0.0)
        abar_means[t] = abar_i.mean()
        residuals[t] = np.sqrt(var_i.sum()) / copies
    return FluctuationResult(
        abar_mean=float(abar_means.mean()), residual_mean=float(residuals.mean())
    )
