"""Dense branch states of the two-time record model, and its full-state oracle.

Branch I pairs particle state |1> with pointer reading I and a record of N
qubits all in e1 = |0>; branch II pairs |2> with reading II and the record
e2 = c|0> + sqrt(1-c^2)|1> per qubit. Selecting a final boundary that carries
one reading makes the history definite: with the bare orthogonal pointer
intact the wrong reading has probability exactly zero. The dense state of
dimension 2^(N+2) checks the closed form of `twotime` for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ORACLE_MAX_QUBITS,
    InvariantError,
    NoConsistentHistory,
    TooLargeForOracle,
    fits_oracle,
)
from .hilbert import StateVector, basis_state
from .twotime import RobustnessModel

READING_I = "I"
READING_II = "II"


@dataclass(frozen=True, eq=False)
class BranchState:
    """One branch of the amplified superposition.

    The environment record is a product of env_size identical per-qubit
    factors, stored once in env_factor.
    """

    label: str
    amplitude: complex
    particle: StateVector
    pointer_label: str
    env_factor: StateVector
    env_size: int


def record_factor_i() -> StateVector:
    """Per-qubit record state of branch I."""
    return basis_state(2, 0)


def record_factor_ii(model: RobustnessModel) -> StateVector:
    """Per-qubit record state of branch II, overlapping branch I's by c."""
    c = model.overlap
    return StateVector(np.array([c, math.sqrt(1.0 - c * c)], dtype=complex))


def forward_chain(model: RobustnessModel) -> tuple[BranchState, ...]:
    """Branches after amplification and environment entanglement.

    A branch with exactly zero amplitude is omitted, so alpha = 1 yields a
    single definite branch.
    """
    branches = []
    if model.alpha != 0:
        branches.append(
            BranchState(
                label=READING_I,
                amplitude=complex(model.alpha),
                particle=basis_state(2, 0),
                pointer_label=READING_I,
                env_factor=record_factor_i(),
                env_size=model.env_size,
            )
        )
    if model.beta != 0:
        branches.append(
            BranchState(
                label=READING_II,
                amplitude=complex(model.beta),
                particle=basis_state(2, 1),
                pointer_label=READING_II,
                env_factor=record_factor_ii(model),
                env_size=model.env_size,
            )
        )
    return tuple(branches)


def _branch_vector(model: RobustnessModel, branch: BranchState) -> np.ndarray:
    """Dense particle (x) pointer (x) record vector of one branch.

    The first n_collapsed record qubits hold the branch's collapse state
    (overlap gamma1 or gamma2 with e1, zero phase); the rest keep env_factor.
    """
    pointer = basis_state(2, 0 if branch.pointer_label == READING_I else 1)
    vec = np.kron(branch.particle.amps, pointer.amps)
    if model.n_collapsed >= 1:
        gamma = model.gamma1 if branch.label == READING_I else model.gamma2
        collapsed = np.array([gamma, math.sqrt(1.0 - gamma * gamma)], dtype=complex)
        for _ in range(model.n_collapsed):
            vec = np.kron(vec, collapsed)
    for _ in range(model.remaining):
        vec = np.kron(vec, branch.env_factor.amps)
    return vec


def full_state(model: RobustnessModel) -> StateVector:
    """Dense particle (x) pointer (x) record state for small N (dim 2^(N+2)).

    Includes the collapse: the first n_collapsed record qubits of each branch
    hold its collapse state, so n_collapsed = 0 gives the amplified state.
    """
    if not fits_oracle(2, model.env_size + 2):
        raise TooLargeForOracle(
            f"full state dim 2^{model.env_size + 2} exceeds 2^{ORACLE_MAX_QUBITS}"
        )
    amps = np.zeros(2 ** (model.env_size + 2), dtype=complex)
    for b in forward_chain(model):
        amps += b.amplitude * _branch_vector(model, b)
    return StateVector(amps)


def select_by_final(model: RobustnessModel, reading: str) -> tuple[float, float]:
    """Weights of the final pointer reading on the amplified state (n_collapsed = 0).

    Projects full_state on that reading and sums over the record. Returns
    (p_right, p_wrong): the weight of the particle state that carries the
    reading, and of the other particle state under the same reading. The
    pointers are orthogonal, so p_wrong is exactly zero and the reading is
    reproduced with probability 1; a reading that no branch carries has no
    consistent history. Bounded like full_state (env_size <= 12).
    """
    if model.n_collapsed != 0:
        raise InvariantError("select_by_final applies before any collapse (n_collapsed = 0)")
    if reading not in (READING_I, READING_II):
        raise InvariantError(f"reading must be {READING_I!r} or {READING_II!r}")
    k = 0 if reading == READING_I else 1
    # (particle, pointer, record) in row-major order; keep the reading's pointer slice
    selected = full_state(model).amps.reshape(2, 2, -1)[:, k, :]
    weights = np.sum(np.abs(selected) ** 2, axis=1)
    p_right, p_wrong = float(weights[k]), float(weights[1 - k])
    if p_right == 0.0:
        raise NoConsistentHistory(
            f"no forward branch carries reading {reading}; boundary is inconsistent"
        )
    return p_right, p_wrong


def brute_force_ratio(model: RobustnessModel) -> float:
    """Full-state oracle for the robustness ratio (dim 2^(N+2) <= 2^14).

    Projects full_state, which includes the collapse, on explicit boundary
    vectors. With n_collapsed = 0 the bare pointer is part of the boundary:
    the wrong history is branch II's particle met by the reading-I boundary,
    orthogonal pointers make its projection vanish identically and the ratio
    is +inf. With n_collapsed >= 1 the reading is carried by the record, so
    the right/wrong boundaries pair each reading with the full e1(N) record
    vector; branch weights are divided out (per-branch renormalization).
    """
    state = full_state(model).amps
    particle = [basis_state(2, 0).amps, basis_state(2, 1).amps]
    pointer = [basis_state(2, 0).amps, basis_state(2, 1).amps]
    e1 = record_factor_i().amps
    record_e1 = np.ones(1, dtype=complex)
    for _ in range(model.env_size):
        record_e1 = np.kron(record_e1, e1)
    wrong_pointer = pointer[0] if model.n_collapsed == 0 else pointer[1]
    boundary_right = np.kron(np.kron(particle[0], pointer[0]), record_e1)
    boundary_wrong = np.kron(np.kron(particle[1], wrong_pointer), record_e1)
    amp_right = np.vdot(boundary_right, state)
    amp_wrong = np.vdot(boundary_wrong, state)
    p_right = abs(amp_right) ** 2 / abs(model.alpha) ** 2 if model.alpha != 0 else 0.0
    p_wrong = abs(amp_wrong) ** 2 / abs(model.beta) ** 2 if model.beta != 0 else 0.0
    if p_wrong == 0.0:
        return float("inf")
    return p_right / p_wrong
