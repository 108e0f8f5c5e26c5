"""Two-time (pre- and post-selected) decoherence and its robustness to collapse.

A microscopic two-branch superposition is amplified: branch I pairs particle
state |1> with pointer reading I and an environment record of N qubits all in
e1 = |0>; branch II pairs |2> with reading II and the record e2 = c|0> +
sqrt(1-c^2)|1> per qubit, so the branch records overlap as c^N. Selecting a
final boundary that carries one reading makes the history definite: with the
bare orthogonal pointer intact the wrong reading has probability exactly zero.

When n of the N record qubits later collapse to states C1/C2 with overlaps
|<C1|e1>| = gamma1 and |<C2|e1>| = gamma2 per qubit (one scalar each, shared
by all n collapsed qubits), the reading is carried by the surviving record and
distinguishability rests on the remaining overlap c^(N-n). The robustness
ratio Pr(right)/Pr(wrong) is then gamma1^(2n) / (c^(2(N-n)) gamma2^(2n)),
which grows exponentially in N - n; a record is treated as effectively
classical once the ratio clears a configurable threshold (default 1e6).
Ratios are evaluated in the log domain so N up to 1e9 is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvariantError,
    NoConsistentHistory,
    OrthogonalCollapseForbidden,
    TooLargeForOracle,
)
from .hilbert import ATOL_EXACT, ORACLE_MAX_QUBITS, StateVector, basis_state, fits_oracle

CLASSICAL_RATIO_THRESHOLD = 1e6

READING_I = "I"
READING_II = "II"


@dataclass(frozen=True, eq=False)
class RobustnessModel:
    """Amplified two-branch superposition with a partially collapsing record.

    alpha, beta weight branches I and II (|alpha|^2 + |beta|^2 = 1); env_size
    is the number N of record qubits; overlap is the per-qubit record overlap
    c in [0, 1); n_collapsed is how many qubits later collapse; gamma1/gamma2
    are the collapse overlaps shared by every collapsed qubit, with gamma1 in
    (0, 1] and gamma2 in [0, 1). They are checked only when n_collapsed >= 1;
    with nothing collapsed they take no part in the model.
    """

    alpha: complex
    beta: complex
    env_size: int
    overlap: float
    n_collapsed: int = 0
    gamma1: float = 1.0
    gamma2: float = 0.0

    def __post_init__(self):
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > ATOL_EXACT:
            raise InvariantError("|alpha|^2 + |beta|^2 must equal 1 within 1e-12")
        if self.env_size < 1:
            raise InvariantError("env_size must be at least 1")
        if not 0.0 <= self.overlap < 1.0:
            raise InvariantError("overlap c must lie in [0, 1)")
        if not 0 <= self.n_collapsed < self.env_size:
            raise InvariantError("n_collapsed must satisfy 0 <= n < env_size")
        object.__setattr__(self, "gamma1", float(self.gamma1))
        object.__setattr__(self, "gamma2", float(self.gamma2))
        if self.n_collapsed >= 1:
            if self.gamma1 == 0.0:
                raise OrthogonalCollapseForbidden(
                    "gamma1 = 0 would make a collapse orthogonal to the recorded branch"
                )
            if not 0.0 < self.gamma1 <= 1.0:
                raise InvariantError("gamma1 must lie in (0, 1]")
            if not 0.0 <= self.gamma2 < 1.0:
                raise InvariantError("gamma2 must lie in [0, 1)")

    @property
    def remaining(self) -> int:
        """Record qubits that never collapse."""
        return self.env_size - self.n_collapsed


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


def log_robustness_ratio(model: RobustnessModel) -> float:
    """Natural log of the robustness ratio, safe for env_size up to 1e9."""
    n = model.n_collapsed
    if model.overlap == 0.0 or (n >= 1 and model.gamma2 == 0.0):
        return float("inf")
    log_ratio = -2.0 * model.remaining * math.log(model.overlap)
    if n >= 1:
        log_ratio += 2.0 * (n * math.log(model.gamma1) - n * math.log(model.gamma2))
    return log_ratio


def robustness_ratio(model: RobustnessModel) -> float:
    """Pr(right reading) / Pr(wrong reading) for the collapsed record.

    Closed form gamma1^(2n) / (c^(2(N-n)) gamma2^(2n)); +inf when the wrong
    branch is perfectly distinguishable (c = 0, or gamma2 = 0 with n >= 1) or on
    overflow. This models the reading as encoded in the N-qubit record; the
    ideal uncollapsed case with the bare orthogonal pointer reconstructs
    perfectly instead (see select_by_final and the n = 0 oracle).
    """
    log_ratio = log_robustness_ratio(model)
    if math.isinf(log_ratio):
        return float("inf")
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return float("inf")


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


def core_decay(n0: float, time_constant: float, t: float) -> float:
    """Remaining intact record size N(t) = N0 exp(-t/T)."""
    if n0 < 0.0:
        raise InvariantError("initial record size must be non-negative")
    if time_constant <= 0.0:
        raise InvariantError("decay time constant must be positive")
    if t < 0.0:
        raise InvariantError("time must be non-negative")
    return float(n0 * math.exp(-t / time_constant))


def classical_threshold(
    n_collapsed: int,
    overlap: float,
    gamma1,
    gamma2,
    ratio_target: float = CLASSICAL_RATIO_THRESHOLD,
) -> int:
    """Smallest record size N for which the robustness ratio reaches the target.

    Starts from the closed form N = n + ceil((ln target - ln ratio(n + 1)) /
    (-2 ln c)) + 1, floored at n + 1. The float log ratio is non-decreasing in
    N, so a bracket doubled outward from that candidate and a bisection inside
    it find the exact smallest N in O(log N) evaluations, however flat the
    float staircase of the log ratio is near c = 1. Arguments are validated as
    a RobustnessModel with a single definite branch.
    """
    if ratio_target <= 0.0:
        raise InvariantError("ratio_target must be positive")
    model = RobustnessModel(
        alpha=1.0,
        beta=0.0,
        env_size=n_collapsed + 1,
        overlap=overlap,
        n_collapsed=n_collapsed,
        gamma1=gamma1,
        gamma2=gamma2,
    )

    def reaches(env_size: int) -> bool:
        return log_robustness_ratio(replace(model, env_size=env_size)) >= log_target

    log_target = math.log(ratio_target)
    first = log_robustness_ratio(model)
    if first == math.inf:
        return n_collapsed + 1  # ratio is +inf for any remaining record
    raw = (log_target - first) / (-2.0 * math.log(overlap)) + 1.0
    if not math.isfinite(raw):
        raise InvariantError("the record size needed overflows a float")
    high = n_collapsed + max(1, math.ceil(raw))
    low = high - 1
    # The answer lies in (low, high] once low fails (or is n) and high reaches.
    step = 1
    while low > n_collapsed and reaches(low):
        low, high = max(n_collapsed, low - step), low
        step *= 2
    while not reaches(high):
        low, high = high, high + step
        step *= 2
    while high - low > 1:
        mid = (low + high) // 2
        if reaches(mid):
            high = mid
        else:
            low = mid
    return high
