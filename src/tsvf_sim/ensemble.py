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
from typing import Callable

import numpy as np

from .errors import (
    ATOL_EXACT,
    ORACLE_MAX_QUBITS,
    SPIN_ORACLE_MAX,
    DimensionError,
    InvariantError,
    TooLargeForOracle,
    fits_oracle,
)
from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, HermitianOperator, StateVector, projector
from .twotime import ensemble_average

# Uncertainty below this counts as zero and no perpendicular component is reported.
DELTA_FLOOR = 1e-12
# Basis columns per block of the spin oracle, and so the column count of its
# matrix products; one 2^N x 32 float64 block is 1 MiB at N = 12. Of widths 16
# to 1024, 32 ran fastest at N = 11 and 12; 256 took about 20% longer.
SPIN_BLOCK = 32


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
    is delta/sqrt(N). Closed form (twotime.ensemble_average over each group's
    decompose moments), valid for arbitrarily large counts.
    """
    if op.dim != spec.dim:
        raise DimensionError(f"operator dim {op.dim} != ensemble copy dim {spec.dim}")
    moments = []
    for state, count in spec.groups:
        dec = decompose(op, state)
        moments.append((count, dec.abar, dec.delta))
    return ensemble_average(moments)


def _site_sum(op_entries: np.ndarray, dim: int, sites: int) -> np.ndarray:
    """Dense sum_i A_i over `sites` sites, a dim^sites square matrix.

    No sites give a 1 x 1 zero, and one site gives op_entries itself.
    """
    if sites == 0:
        return np.zeros((1, 1), dtype=op_entries.dtype)
    total = op_entries
    for k in range(1, sites):
        total = np.kron(total, np.eye(dim)) + np.kron(np.eye(dim ** k), op_entries)
    return total


def _site_average(
    op_entries: np.ndarray, dim: int, n: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Return a function applying (1/N) sum_i A_i to (dim^N, B) blocks, B = 1 for one vector.

    With the h = N//2 high sites split from the N - h low ones, the site sum is
    the Kronecker sum H (x) I + I (x) L of the two halves' dense sums, built
    once here. Each application takes one matrix product on a (dim^h, -1) view
    of the block and one stacked product on a (dim^h, dim^(N-h), -1) view: two
    passes over the block, not N.
    """
    high = n // 2
    upper_sum = _site_sum(op_entries, dim, high)
    lower_sum = _site_sum(op_entries, dim, n - high)

    def apply(block: np.ndarray) -> np.ndarray:
        total = (upper_sum @ block.reshape(dim ** high, -1)).reshape(block.shape)
        lower = np.matmul(lower_sum, block.reshape(dim ** high, dim ** (n - high), -1))
        total += lower.reshape(block.shape)
        total /= n
        return total

    return apply


def brute_force_average(
    op: HermitianOperator, spec: EnsembleSpec
) -> tuple[float, float]:
    """Full product-space oracle for average_operator_residual.

    Builds the complete d^N product state and applies (1/N) sum_i A_i to it
    as a Kronecker sum over two halves of the sites, with no closed-form
    shortcuts. Guarded by d^N <= 2^14.
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
    averaged = _site_average(op.entries, d, n)(full)
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

    Applies Sx_avg, Sy_avg, Sz_avg, each a Kronecker sum over two halves of
    the sites, to every basis vector of the full 2^N space, SPIN_BLOCK
    columns at a time, so every one of the 4^N matrix entries is checked
    without holding a 2^N x 2^N matrix. All of it is real float64:
    sigma_y/2 = i Y with Y = [[0, -1/2], [1/2, 0]] real, so
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
    sx_avg, y_avg, sz_avg = (_site_average(one, 2, n) for one in (sx_one.real, y_one, sz_one.real))
    eig_max = 0.0
    identity_error = 0.0
    for start in range(0, dim, SPIN_BLOCK):
        width = min(SPIN_BLOCK, dim - start)
        columns = np.eye(dim, width, -start)
        sx = sx_avg(columns)
        y = y_avg(columns)
        sz = sz_avg(columns)
        diag = sz[start + np.arange(width), np.arange(width)]
        if np.count_nonzero(sz) != np.count_nonzero(diag):
            raise InvariantError("averaged Sz is not diagonal in the product basis")
        eig_max = max(eig_max, float(np.max(np.abs(diag))))
        comm = sx_avg(y) - y_avg(sx)
        identity_error = max(identity_error, float(np.max(np.abs(comm - sz / n))))
    return eig_max / n, identity_error
