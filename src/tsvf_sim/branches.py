"""Dense branch states of the two-time record model, and its full-state oracle.

Branch I pairs particle state |1> with pointer reading I and a record of N
qubits all in e1 = |0>; branch II pairs |2> with reading II and the record
e2 = c|0> + sqrt(1-c^2)|1> per qubit. Selecting a final boundary that carries
one reading makes the history definite: with the bare orthogonal pointer
intact the wrong reading has probability exactly zero. The dense state of
dimension 2^(N+2) checks the closed form of `twotime` for small N; each
branch vector is built straight from the RobustnessModel's parameters.

Pure Python, without numpy. Every factor of a branch is real, so each
branch's record is an array('d') of its 2^N real amplitudes, built once in
row-major order (the left factor varies slowest); only the weighting by
alpha or beta is complex. The dense state is never built: it is the sum over
branches k of amplitude_k |particle = k, pointer = k> (x) record_k, so every
block of |particle, pointer> with particle != pointer is zero.
"""

from __future__ import annotations

import math
import sys
from array import array

from .errors import ORACLE_MAX_QUBITS, InvariantError, fits_oracle
from .twotime import RobustnessModel

READING_I = "I"
READING_II = "II"


def _qubit(overlap: float) -> tuple[float, float]:
    """One-qubit state overlapping |0> by `overlap`, with zero phase."""
    return float(overlap), math.sqrt(1.0 - overlap * overlap)


def _factors(model: RobustnessModel, k: int) -> list[tuple[float, float]]:
    """Record qubit states of branch I (k = 0) or II (k = 1), left to right.

    The first n_collapsed qubits hold the branch's collapse state (overlap
    gamma1 or gamma2 with e1); the rest keep the branch record, e1 = |0> for
    I and overlap c with it for II.
    """
    collapsed = _qubit((model.gamma1, model.gamma2)[k])
    record = _qubit(model.overlap) if k else (1.0, 0.0)
    return [collapsed] * model.n_collapsed + [record] * model.remaining


def _record(factors: list[tuple[float, float]]) -> array:
    """Row-major Kronecker product of the one-qubit factors, with the same
    products as np.kron, taken left to right."""
    vec = array("d", [1.0])
    for b0, b1 in factors:
        out = vec * 2  # twice the length; every entry is overwritten
        out[0::2] = array("d", map(b0.__mul__, vec))
        out[1::2] = array("d", map(b1.__mul__, vec))
        vec = out
    return vec


def _records(model: RobustnessModel) -> list[tuple[int, complex, array]]:
    """(k, alpha or beta, record vector) of each branch whose amplitude is not zero.

    Raises InvariantError beyond dimension 2^ORACLE_MAX_QUBITS, before any
    vector is built.
    """
    if not fits_oracle(2, model.env_size + 2):
        raise InvariantError(
            f"full state dim 2^{model.env_size + 2} exceeds 2^{ORACLE_MAX_QUBITS}"
        )
    return [(k, complex(amplitude), _record(_factors(model, k)))
            for k, amplitude in enumerate((model.alpha, model.beta))
            if amplitude != 0]  # so alpha = 1 yields a single definite branch


def _weight(records: list[tuple[int, complex, array]], particle: int, pointer: int) -> float:
    """Weight of |particle, pointer> in the dense state, summed over the record.

    Branch k sits at |k, k>, so no branch sits where particle and pointer differ.
    """
    return math.fsum(abs(amplitude * r) ** 2
                     for k, amplitude, record in records if (k, k) == (particle, pointer)
                     for r in record)


def select_by_final(model: RobustnessModel, reading: str) -> tuple[float, float]:
    """Weights of the final pointer reading on the amplified state (n_collapsed = 0).

    Projects the dense state on that reading and sums over the record.
    Returns (p_right, p_wrong): the weight of the particle state that carries
    the reading, and of the other particle state under the same reading. The
    pointers are orthogonal, so p_wrong is exactly zero and the reading is
    reproduced with probability 1; a reading that no branch carries has no
    consistent history. Bounded like every dense oracle (env_size <= 12).
    """
    if model.n_collapsed != 0:
        raise InvariantError("select_by_final applies before any collapse (n_collapsed = 0)")
    if reading not in (READING_I, READING_II):
        raise InvariantError(f"reading must be {READING_I!r} or {READING_II!r}")
    k = 0 if reading == READING_I else 1
    records = _records(model)
    p_right = _weight(records, k, k)
    p_wrong = _weight(records, 1 - k, k)
    if p_right == 0.0:
        raise InvariantError(
            f"no forward branch carries reading {reading}; boundary is inconsistent"
        )
    return p_right, p_wrong


def brute_force_ratio(model: RobustnessModel) -> float | None:
    """Full-state oracle for the robustness ratio (dim 2^(N+2) <= 2^14).

    Projects the dense state, which includes the collapse, on boundary basis
    vectors |particle, pointer, e1...e1>; each projection is the amplitude at
    that vector's index, the first of a record vector. With n_collapsed = 0
    the bare pointer is part of the boundary: the wrong history is branch
    II's particle met by the reading-I boundary, orthogonal pointers make its
    projection vanish identically and the ratio is +inf. With n_collapsed >= 1
    the reading is carried by the record, so the right/wrong boundaries pair
    each reading with the full e1(N) record vector; branch weights are
    divided out (per-branch renormalization). Returns None, no number, where
    a projected weight |amplitude|^2 falls below the smallest normal float
    although none of its factors is zero: that weight has lost its digits.
    """
    records = _records(model)
    # The right boundary |0, 0, e1...e1> meets branch I; the wrong one
    # |1, pointer, e1...e1> meets branch II only where its pointer is 1.
    meets = (True, model.n_collapsed >= 1)
    p = [0.0, 0.0]
    for k, amplitude, record in records:
        if meets[k]:
            weight = abs(amplitude * record[0]) ** 2
            if weight < sys.float_info.min and all(b0 for b0, _ in _factors(model, k)):
                return None
            p[k] = weight / abs(amplitude) ** 2 if weight else 0.0
    p_right, p_wrong = p
    if p_wrong == 0.0:
        return float("inf")
    return p_right / p_wrong
