"""Two-time (pre- and post-selected) decoherence and its robustness to collapse.

A microscopic two-branch superposition is amplified: branch I pairs particle
state |1> with pointer reading I and an environment record of N qubits all in
e1 = |0>; branch II pairs |2> with reading II and the record e2 = c|0> +
sqrt(1-c^2)|1> per qubit, so the branch records overlap as c^N. Selecting a
final boundary that carries one reading makes the history definite: with the
bare orthogonal pointer intact the wrong reading has probability exactly zero.

When n of the N record qubits later collapse to states C1/C2 with overlaps
|<C1|e1>| = gamma1 and |<C2|e1>| = gamma2 per qubit, the reading is carried by
the surviving record and distinguishability rests on the remaining overlap
c^(N-n). The robustness ratio Pr(right)/Pr(wrong) is then
prod(gamma1^2) / (|c^(N-n)|^2 prod(gamma2^2)), which grows exponentially in
N - n; a record is treated as effectively classical once the ratio clears a
configurable threshold (default 1e6). Ratios are evaluated in the log domain
so N up to 1e9 is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

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


def _as_gamma_tuple(value, n: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float, np.floating, np.integer)):
        values = (float(value),) * n
    else:
        values = tuple(float(v) for v in value)
        if len(values) != n:
            raise InvariantError(
                f"{name} must be a scalar or a sequence of length {n}, got {len(values)} entries"
            )
    return values


@dataclass(frozen=True, eq=False)
class RobustnessModel:
    """Amplified two-branch superposition with a partially collapsing record.

    alpha, beta weight branches I and II (|alpha|^2 + |beta|^2 = 1); env_size
    is the number N of record qubits; overlap is the per-qubit record overlap
    c in [0, 1); n_collapsed is how many qubits later collapse; gamma1/gamma2
    are the per-qubit collapse overlaps (scalar broadcast or length-n_collapsed
    sequences), with gamma1 in (0, 1] and gamma2 in [0, 1).
    """

    alpha: complex
    beta: complex
    env_size: int
    overlap: float
    n_collapsed: int = 0
    gamma1: float | Sequence[float] = 1.0
    gamma2: float | Sequence[float] = 0.0

    def __post_init__(self):
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > ATOL_EXACT:
            raise InvariantError("|alpha|^2 + |beta|^2 must equal 1 within 1e-12")
        if self.env_size < 1:
            raise InvariantError("env_size must be at least 1")
        if not 0.0 <= self.overlap < 1.0:
            raise InvariantError("overlap c must lie in [0, 1)")
        if not 0 <= self.n_collapsed < self.env_size:
            raise InvariantError("n_collapsed must satisfy 0 <= n < env_size")
        g1 = _as_gamma_tuple(self.gamma1, self.n_collapsed, "gamma1")
        g2 = _as_gamma_tuple(self.gamma2, self.n_collapsed, "gamma2")
        for g in g1:
            if g == 0.0:
                raise OrthogonalCollapseForbidden(
                    "gamma1 = 0 would make a collapse orthogonal to the recorded branch"
                )
            if not 0.0 < g <= 1.0:
                raise InvariantError("gamma1 entries must lie in (0, 1]")
        for g in g2:
            if not 0.0 <= g < 1.0:
                raise InvariantError("gamma2 entries must lie in [0, 1)")
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "gamma2", g2)

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


@dataclass(frozen=True, eq=False)
class CollapsedEnvironment:
    """Per-branch record after n qubits collapsed; the rest keep their overlap."""

    model: RobustnessModel
    c1_states: tuple[StateVector, ...]
    c2_states: tuple[StateVector, ...]
    remaining_overlap: float


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


def full_state(model: RobustnessModel) -> StateVector:
    """Dense particle (x) pointer (x) record state for small N (dim 2^(N+2))."""
    if not fits_oracle(2, model.env_size + 2):
        raise TooLargeForOracle(
            f"full state dim 2^{model.env_size + 2} exceeds 2^{ORACLE_MAX_QUBITS}"
        )
    dim = 2 ** (model.env_size + 2)
    amps = np.zeros(dim, dtype=complex)
    for b in forward_chain(model):
        pointer = basis_state(2, 0 if b.pointer_label == READING_I else 1)
        env = np.ones(1, dtype=complex)
        for _ in range(b.env_size):
            env = np.kron(env, b.env_factor.amps)
        amps += b.amplitude * np.kron(np.kron(b.particle.amps, pointer.amps), env)
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


def _collapse_states(
    model: RobustnessModel, phases1=None, phases2=None
) -> tuple[tuple[StateVector, ...], tuple[StateVector, ...]]:
    n = model.n_collapsed
    phases1 = np.zeros(n) if phases1 is None else np.asarray(phases1, dtype=float)
    phases2 = np.zeros(n) if phases2 is None else np.asarray(phases2, dtype=float)
    c1, c2 = [], []
    for j in range(n):
        g1, g2 = model.gamma1[j], model.gamma2[j]
        c1.append(
            StateVector(
                np.array(
                    [g1, np.exp(1j * phases1[j]) * math.sqrt(1.0 - g1 * g1)], dtype=complex
                )
            )
        )
        c2.append(
            StateVector(
                np.array(
                    [g2, np.exp(1j * phases2[j]) * math.sqrt(1.0 - g2 * g2)], dtype=complex
                )
            )
        )
    return tuple(c1), tuple(c2)


def collapse_environment(
    model: RobustnessModel, rng: np.random.Generator
) -> CollapsedEnvironment:
    """Collapse the first n_collapsed record qubits of each branch.

    The collapse is an uncontrolled event: each collapsed qubit lands on a
    state with the prescribed overlap magnitude (gamma1 against branch I's
    record, gamma2 for branch II, both measured against e1) and an arbitrary
    phase on the orthogonal component, drawn from rng. Nothing downstream
    depends on those phases. The n_collapsed = 0 case returns the record
    unchanged.
    """
    for g in model.gamma1:
        if g == 0.0:
            raise OrthogonalCollapseForbidden("gamma1 = 0 erases the branch record")
    n = model.n_collapsed
    c1, c2 = _collapse_states(
        model,
        phases1=rng.uniform(0.0, 2.0 * math.pi, size=n),
        phases2=rng.uniform(0.0, 2.0 * math.pi, size=n),
    )
    return CollapsedEnvironment(
        model=model,
        c1_states=c1,
        c2_states=c2,
        remaining_overlap=float(model.overlap) ** model.remaining,
    )


def log_robustness_ratio(model: RobustnessModel) -> float:
    """Natural log of the robustness ratio, safe for env_size up to 1e9."""
    if model.overlap == 0.0 or any(g == 0.0 for g in model.gamma2):
        return float("inf")
    log_g1 = sum(math.log(g) for g in model.gamma1)
    log_g2 = sum(math.log(g) for g in model.gamma2)
    return 2.0 * (log_g1 - log_g2) - 2.0 * model.remaining * math.log(model.overlap)


def robustness_ratio(model: RobustnessModel) -> float:
    """Pr(right reading) / Pr(wrong reading) for the collapsed record.

    Closed form prod(gamma1^2) / (|c^(N-n)|^2 prod(gamma2^2)); +inf when the
    wrong branch is perfectly distinguishable (c = 0 or some gamma2 = 0) or on
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


def brute_force_ratio(
    model: RobustnessModel, collapsed: CollapsedEnvironment | None = None
) -> float:
    """Full-state oracle for the robustness ratio (dim 2^(N+2) <= 2^14).

    Constructs the complete particle-pointer-record vector after collapse and
    projects it on explicit boundary vectors. With n_collapsed = 0 the bare
    pointer is part of the boundary, the wrong reading's projection vanishes
    identically and the ratio is +inf. With n_collapsed >= 1 the reading is
    carried by the record, so the right/wrong boundaries pair each reading
    with the full e1(N) record vector; branch weights are divided out
    (per-branch renormalization).
    """
    n_env, n_col = model.env_size, model.n_collapsed
    if not fits_oracle(2, n_env + 2):
        raise TooLargeForOracle(
            f"full state dim 2^{n_env + 2} exceeds 2^{ORACLE_MAX_QUBITS}"
        )
    if collapsed is None:
        c1, c2 = _collapse_states(model)
    else:
        if collapsed.model is not model:
            raise InvariantError("collapsed environment belongs to a different model")
        c1, c2 = collapsed.c1_states, collapsed.c2_states

    e1 = record_factor_i().amps
    e2 = record_factor_ii(model).amps

    def env_product(collapsed_states, tail_factor, tail_count):
        env = np.ones(1, dtype=complex)
        for s in collapsed_states:
            env = np.kron(env, s.amps)
        for _ in range(tail_count):
            env = np.kron(env, tail_factor)
        return env

    tail = n_env - n_col
    particle = [basis_state(2, 0).amps, basis_state(2, 1).amps]
    pointer = [basis_state(2, 0).amps, basis_state(2, 1).amps]
    branch_i = np.kron(np.kron(particle[0], pointer[0]), env_product(c1, e1, tail))
    branch_ii = np.kron(np.kron(particle[1], pointer[1]), env_product(c2, e2, tail))
    state = model.alpha * branch_i + model.beta * branch_ii

    record_e1 = env_product((), e1, n_env)  # e1 on all N qubits
    boundary_right = np.kron(np.kron(particle[0], pointer[0]), record_e1)
    if n_col == 0:
        # The bare pointer is part of the boundary here, so the wrong reading
        # is the same fixed boundary met by branch II: orthogonal pointers
        # make that amplitude exactly zero.
        amp_right = np.vdot(boundary_right, state)
        amp_wrong = np.vdot(boundary_right, model.beta * branch_ii)
    else:
        boundary_wrong = np.kron(np.kron(particle[1], pointer[1]), record_e1)
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

    The closed form N = n + ceil((ln target - ln ratio(n + 1)) / (-2 ln c)) + 1,
    floored at n + 1, is verified by direct evaluation at N and N - 1 so the
    returned value brackets the target exactly. Arguments are validated as a
    RobustnessModel with a single definite branch.
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

    def log_ratio_at(env_size: int) -> float:
        return log_robustness_ratio(replace(model, env_size=env_size))

    log_target = math.log(ratio_target)
    first = log_robustness_ratio(model)
    if math.isinf(first):
        return n_collapsed + 1  # ratio is +inf for any remaining record
    raw = (log_target - first) / (-2.0 * math.log(overlap)) + 1.0
    candidate = n_collapsed + max(1, math.ceil(raw))
    while candidate - 1 > n_collapsed and log_ratio_at(candidate - 1) >= log_target:
        candidate -= 1
    while log_ratio_at(candidate) < log_target:
        candidate += 1
    return candidate
