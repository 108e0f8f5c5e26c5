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


@dataclass(frozen=True, eq=False)
class FinalBoundary:
    """Backward boundary condition: a pointer reading plus an optional microstate.

    When micro is None the boundary's microscopic part defaults to the forward
    particle state of the selected branch.
    """

    reading: str = READING_I
    micro: StateVector | None = None

    def __post_init__(self):
        if self.reading not in (READING_I, READING_II):
            raise InvariantError(f"reading must be {READING_I!r} or {READING_II!r}")


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


def select_by_final(
    model: RobustnessModel, final: FinalBoundary | None = None
) -> tuple[float, float]:
    """Projection weights of a final boundary on the uncollapsed branches.

    Valid before any collapse (n_collapsed = 0). Returns (p_right, p_wrong):
    p_right = |amplitude|^2 |<micro|particle>|^2 for the branch matching the
    boundary reading, and p_wrong = 0 exactly because the other branch's
    pointer is orthogonal to the selected reading. The reading is therefore
    reproduced with probability 1; a boundary orthogonal to every branch has
    no consistent history.
    """
    if model.n_collapsed != 0:
        raise InvariantError("select_by_final applies before any collapse (n_collapsed = 0)")
    final = final if final is not None else FinalBoundary()
    selected = None
    for b in forward_chain(model):
        if b.pointer_label == final.reading:
            selected = b
    if selected is None:
        raise NoConsistentHistory(
            f"no forward branch carries reading {final.reading}; boundary is inconsistent"
        )
    micro_weight = 1.0
    if final.micro is not None:
        micro_weight = abs(complex(np.vdot(final.micro.amps, selected.particle.amps))) ** 2
    p_right = abs(selected.amplitude) ** 2 * micro_weight
    if p_right == 0.0:
        raise NoConsistentHistory("final microstate is orthogonal to the selected branch")
    return p_right, 0.0


def sample_final_boundary(model: RobustnessModel, rng: np.random.Generator) -> str:
    """Draw a final reading with Born weights |alpha|^2 / |beta|^2."""
    return READING_I if rng.random() < abs(model.alpha) ** 2 else READING_II


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
