"""Dense branch states of the two-time record model, and its full-state oracle.

Branch I pairs particle state |1> with pointer reading I and a record of N
qubits all in e1 = |0>; branch II pairs |2> with reading II and the record
e2 = c|0> + sqrt(1-c^2)|1> per qubit. Selecting a final boundary that carries
one reading makes the history definite: with the bare orthogonal pointer
intact the wrong reading has probability exactly zero. The dense state of
dimension 2^(N+2) checks the closed form of `twotime` for small N.

Pure Python, without numpy: a state is a tuple of complex amplitudes in
row-major order (the left factor varies slowest), so the amplitude of
|particle, pointer, record> sits at index (2*particle + pointer) * 2^N + record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ORACLE_MAX_QUBITS,
    InvariantError,
    NoConsistentHistory,
    TooLargeForOracle,
    fits_oracle,
)
from .twotime import RobustnessModel

READING_I = "I"
READING_II = "II"

# Computational basis states |0>, |1> of one qubit (particle, pointer or record).
_KET = ((1 + 0j, 0j), (0j, 1 + 0j))


@dataclass(frozen=True, eq=False)
class BranchState:
    """One branch of the amplified superposition.

    The environment record is a product of env_size identical per-qubit
    factors, stored once in env_factor.
    """

    label: str
    amplitude: complex
    particle: tuple[complex, complex]
    pointer_label: str
    env_factor: tuple[complex, complex]
    env_size: int


def _kron(a, b) -> list[complex]:
    """Row-major Kronecker product of two amplitude sequences, as np.kron."""
    return [x * y for x in a for y in b]


def _qubit(overlap: float) -> tuple[complex, complex]:
    """One-qubit state overlapping |0> by `overlap`, with zero phase."""
    return complex(overlap), complex(math.sqrt(1.0 - overlap * overlap))


def record_factor_i() -> tuple[complex, complex]:
    """Per-qubit record state of branch I."""
    return _KET[0]


def record_factor_ii(model: RobustnessModel) -> tuple[complex, complex]:
    """Per-qubit record state of branch II, overlapping branch I's by c."""
    return _qubit(model.overlap)


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
                particle=_KET[0],
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
                particle=_KET[1],
                pointer_label=READING_II,
                env_factor=record_factor_ii(model),
                env_size=model.env_size,
            )
        )
    return tuple(branches)


def _branch_vector(model: RobustnessModel, branch: BranchState) -> list[complex]:
    """Dense particle (x) pointer (x) record vector of one branch.

    The first n_collapsed record qubits hold the branch's collapse state
    (overlap gamma1 or gamma2 with e1, zero phase); the rest keep env_factor.
    """
    pointer = _KET[0 if branch.pointer_label == READING_I else 1]
    vec = _kron(branch.particle, pointer)
    if model.n_collapsed >= 1:
        collapsed = _qubit(model.gamma1 if branch.label == READING_I else model.gamma2)
        for _ in range(model.n_collapsed):
            vec = _kron(vec, collapsed)
    for _ in range(model.remaining):
        vec = _kron(vec, branch.env_factor)
    return vec


def full_state(model: RobustnessModel) -> tuple[complex, ...]:
    """Dense particle (x) pointer (x) record amplitudes for small N (2^(N+2) of them).

    Includes the collapse: the first n_collapsed record qubits of each branch
    hold its collapse state, so n_collapsed = 0 gives the amplified state.
    """
    if not fits_oracle(2, model.env_size + 2):
        raise TooLargeForOracle(
            f"full state dim 2^{model.env_size + 2} exceeds 2^{ORACLE_MAX_QUBITS}"
        )
    amps = [0j] * 2 ** (model.env_size + 2)
    for b in forward_chain(model):
        amps = [s + b.amplitude * v for s, v in zip(amps, _branch_vector(model, b))]
    return tuple(amps)


def _weight(state: tuple[complex, ...], particle: int, pointer: int, env_size: int) -> float:
    """Weight of |particle, pointer> in state, summed over the record."""
    start = (2 * particle + pointer) << env_size
    return math.fsum(abs(a) ** 2 for a in state[start:start + (1 << env_size)])


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
    state = full_state(model)
    p_right = _weight(state, k, k, model.env_size)
    p_wrong = _weight(state, 1 - k, k, model.env_size)
    if p_right == 0.0:
        raise NoConsistentHistory(
            f"no forward branch carries reading {reading}; boundary is inconsistent"
        )
    return p_right, p_wrong


def brute_force_ratio(model: RobustnessModel) -> float:
    """Full-state oracle for the robustness ratio (dim 2^(N+2) <= 2^14).

    Projects full_state, which includes the collapse, on boundary basis
    vectors |particle, pointer, e1...e1>; each projection is the amplitude at
    that vector's index. With n_collapsed = 0 the bare pointer is part of the
    boundary: the wrong history is branch II's particle met by the reading-I
    boundary, orthogonal pointers make its projection vanish identically and
    the ratio is +inf. With n_collapsed >= 1 the reading is carried by the
    record, so the right/wrong boundaries pair each reading with the full
    e1(N) record vector; branch weights are divided out (per-branch
    renormalization).
    """
    state = full_state(model)
    wrong_pointer = 0 if model.n_collapsed == 0 else 1
    amp_right = state[0]
    amp_wrong = state[(2 + wrong_pointer) << model.env_size]
    p_right = abs(amp_right) ** 2 / abs(model.alpha) ** 2 if model.alpha != 0 else 0.0
    p_wrong = abs(amp_wrong) ** 2 / abs(model.beta) ** 2 if model.beta != 0 else 0.0
    if p_wrong == 0.0:
        return float("inf")
    return p_right / p_wrong
