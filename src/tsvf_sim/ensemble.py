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

# Uncertainty below this counts as zero and no perpendicular component is reported.
DELTA_FLOOR = 1e-12
# Largest spin count for the spin oracle, which does 8^N work: about 2 s and a
# 64 MiB allocation peak at N = 12 on a 2-core Xeon.
SPIN_ORACLE_MAX = 12
# Basis columns per block of the spin oracle; one 2^N x 256 float64 block is
# 8 MiB at N = 12, and widths from 128 to 1024 ran equally fast.
SPIN_BLOCK = 256


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


def decompose(op: HermitianOperator, psi: StateVector) -> Decomposition:
    """Decompose the action of op on a normalized state."""
    abar = op.expectation(psi)
    residual = op.apply(psi) - abar * psi.amps
    delta = float(np.linalg.norm(residual))
    perp = StateVector(residual / delta) if delta > DELTA_FLOOR else None
    return Decomposition(abar=abar, delta=delta, perp=perp)


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


def _apply_at_site(op_entries: np.ndarray, block: np.ndarray, site: int, dim: int) -> np.ndarray:
    """Apply a one-copy operator at one site to a (dim^N, B) block of vectors.

    A single vector of shape (dim^N,) is the case B = 1.
    """
    cube = block.reshape(dim ** site, dim, -1)
    return np.matmul(op_entries, cube).reshape(block.shape)


def _site_average(op_entries: np.ndarray, block: np.ndarray, dim: int, n: int) -> np.ndarray:
    """(1/N) sum_i A_i applied to a block, one site at a time."""
    total = np.zeros_like(block)
    for site in range(n):
        total += _apply_at_site(op_entries, block, site, dim)
    total /= n
    return total


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
    averaged = _site_average(op.entries, full, d, n)
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
    """Brute-force oracle for the averaged-spin commutator identity.

    Applies Sx_avg, Sy_avg, Sz_avg site by site to every basis vector of the
    full 2^N space, SPIN_BLOCK columns at a time, so every one of the 4^N
    matrix entries is checked without holding a 2^N x 2^N matrix. All of it
    is real float64: sigma_y/2 = i Y with Y = [[0, -1/2], [1/2, 0]] real, so
    [Sx_avg, Sy_avg] = i Sz_avg / N holds exactly when
    Sx_avg Y_avg - Y_avg Sx_avg = Sz_avg / N. The three real 2x2 matrices are
    taken from SIGMA_X, SIGMA_Y and SIGMA_Z, and InvariantError is raised
    unless that split is exact. Returns the scale max|eig(Sz_avg)|/N, read off
    the diagonal of Sz_avg (which must have no nonzero off-diagonal entry),
    together with the worst entrywise deviation of the real identity.
    """
    if n < 1:
        raise InvariantError("need at least one spin")
    if n > SPIN_ORACLE_MAX:
        raise TooLargeForOracle(f"dense spin oracle is limited to {SPIN_ORACLE_MAX} spins")
    dim = 2 ** n
    sx_one, sz_one = (0.5 * sigma.entries for sigma in (SIGMA_X, SIGMA_Z))
    y_one = (-0.5j * SIGMA_Y.entries).real
    if np.any(sx_one.imag) or np.any(sz_one.imag) or not np.array_equal(
        1j * y_one, 0.5 * SIGMA_Y.entries
    ):
        raise InvariantError("spin matrices do not split into real Sx, Sz and i times real Y")
    sx_one, sz_one = sx_one.real, sz_one.real
    eig_max = 0.0
    identity_error = 0.0
    for start in range(0, dim, SPIN_BLOCK):
        width = min(SPIN_BLOCK, dim - start)
        columns = np.eye(dim, width, -start)
        sx = _site_average(sx_one, columns, 2, n)
        y = _site_average(y_one, columns, 2, n)
        sz = _site_average(sz_one, columns, 2, n)
        diag = sz[start + np.arange(width), np.arange(width)]
        if np.count_nonzero(sz) != np.count_nonzero(diag):
            raise InvariantError("averaged Sz is not diagonal in the product basis")
        eig_max = max(eig_max, float(np.max(np.abs(diag))))
        comm = _site_average(sx_one, y, 2, n) - _site_average(y_one, sx, 2, n)
        identity_error = max(identity_error, float(np.max(np.abs(comm - sz / n))))
    return eig_max / n, identity_error
