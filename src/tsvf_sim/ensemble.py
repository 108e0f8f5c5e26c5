"""Ensemble-average observables and deterministic operators.

For a single copy, an observable splits as A|psi> = abar|psi> + delta|perp>
with abar the expectation value and delta the uncertainty. Averaging one-copy
observables over a product ensemble of N copies leaves an operator whose
residual (non-determinism) on the product state shrinks as 1/sqrt(N).
Operators with delta = 0 are deterministic for the state, and the set of
deterministic operators is large: (d-1)^2 + 1 linearly independent ones in
dimension d. The averaged spin components are in `spins`. Every norm here is
`math.hypot`, which squares no entry, so a norm near 1e-170 or 1e300 stays accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NON_NEGATIVE,
    ORACLE_MAX_QUBITS,
    InvariantError,
    fits_oracle,
    require_count,
    require_in,
)
from .hilbert import HermitianOperator, StateVector, _norm, projector
from .twotime import ensemble_average

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
        groups = tuple((state, require_count("group count", count, 1))
                       for state, count in self.groups)
        if not all(isinstance(state, StateVector) for state, _ in groups):
            raise InvariantError("every ensemble group's state must be a StateVector")
        if len({state.dim for state, _ in groups}) > 1:
            raise InvariantError("all ensemble groups must share one copy dimension")
        # The closed form divides by the total as a float.
        require_in("the total group count", sum(count for _, count in groups), NON_NEGATIVE)
        object.__setattr__(self, "groups", groups)

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
    delta = _norm(residual)
    perp = StateVector(residual / delta) if delta > DELTA_FLOOR else None
    return Decomposition(abar=abar, delta=delta, perp=perp)


def deterministic_basis(psi: StateVector) -> tuple[HermitianOperator, ...]:
    """A maximal independent set of operators deterministic for psi.

    Returns (d-1)^2 + 1 Hermitian operators: the projector onto psi plus a
    real-linear basis of the Hermitian operators supported on the orthogonal
    complement (each annihilates psi, eigenvalue 0). Real linear combinations
    stay deterministic, and any two members commute on psi exactly.
    """
    psi.require_normalized("deterministic_basis state")
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
        raise InvariantError(f"operator dims differ: {a.dim} vs {b.dim}")
    ab = a.entries @ b.apply(psi)
    ba = b.entries @ a.apply(psi)
    return _norm(ab - ba)


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
        raise InvariantError(f"operator dim {op.dim} != ensemble copy dim {spec.dim}")
    moments = []
    for state, count in spec.groups:
        dec = decompose(op, state)
        moments.append((count, dec.abar, dec.delta))
    return ensemble_average(moments)


def brute_force_average(
    op: HermitianOperator, spec: EnsembleSpec
) -> tuple[float, float]:
    """Full product-space oracle for average_operator_residual.

    Builds the complete d^N product state and applies (1/N) sum_i A_i to it
    one site at a time, with no closed-form shortcuts. Guarded by d^N <= 2^14.
    """
    if op.dim != spec.dim:
        raise InvariantError(f"operator dim {op.dim} != ensemble copy dim {spec.dim}")
    d, n = spec.dim, spec.size
    if not fits_oracle(d, n):
        raise InvariantError(f"product dimension {d}^{n} exceeds 2^{ORACLE_MAX_QUBITS}")
    full = np.ones(1, dtype=complex)
    for state, count in spec.groups:
        for _ in range(count):
            full = np.kron(full, state.amps)
    averaged = np.zeros_like(full)
    for i in range(n):
        # A on site i: the middle axis of the (d^i, d, d^(N-1-i)) view
        averaged += (op.entries @ full.reshape(d ** i, d, -1)).reshape(-1)
    averaged /= n
    abar = float(np.real(np.vdot(full, averaged)))
    residual = _norm(averaged - abar * full)
    return abar, residual
