"""Closed-form record model: robustness to collapse, record size, core decay.

A microscopic two-branch superposition is amplified: branch I pairs particle
state |1> with pointer reading I and an environment record of N qubits all in
e1 = |0>; branch II pairs |2> with reading II and the record e2 = c|0> +
sqrt(1-c^2)|1> per qubit, so the branch records overlap as c^N.

When n of the N record qubits later collapse to states C1/C2 with overlaps
|<C1|e1>| = gamma1 and |<C2|e1>| = gamma2 per qubit (one scalar each, shared
by all n collapsed qubits), the reading is carried by the surviving record and
distinguishability rests on the remaining overlap c^(N-n). The robustness
ratio Pr(right)/Pr(wrong) is then gamma1^(2n) / (c^(2(N-n)) gamma2^(2n)),
which grows exponentially in N - n; a record is treated as effectively
classical once the ratio clears a configurable threshold (default 1e6).
Ratios are evaluated in the log domain so N up to 1e9 is safe.

The module also holds the ensemble reduction behind the 1/sqrt(N) law:
averaging a one-copy observable over a product ensemble leaves mean
sum_g N_g abar_g / N and residual sqrt(sum_g N_g delta_g^2) / N, from each
group's one-copy moments. `ensemble.average_operator_residual` and the
`convergence` experiment both reduce through `ensemble_average`.

Everything here is scalar float arithmetic with `math`, so this module does
not import numpy; the dense branch states that check it live in `branches`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .errors import ATOL_EXACT, InvariantError, OrthogonalCollapseForbidden

CLASSICAL_RATIO_THRESHOLD = 1e6


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
    perfectly instead (see branches.select_by_final and the n = 0 oracle).
    """
    log_ratio = log_robustness_ratio(model)
    if math.isinf(log_ratio):
        return float("inf")
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return float("inf")


def core_decay(n0: float, time_constant: float, t: float) -> float:
    """Remaining intact record size N(t) = N0 exp(-t/T)."""
    if n0 < 0.0:
        raise InvariantError("initial record size must be non-negative")
    if time_constant <= 0.0:
        raise InvariantError("decay time constant must be positive")
    if t < 0.0:
        raise InvariantError("time must be non-negative")
    return float(n0 * math.exp(-t / time_constant))


def ensemble_average(moments: Iterable[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean and residual of the averaged operator (1/N) sum_i A_i on a product state.

    `moments` holds (N_g, abar_g, delta_g) for each group of N_g identical
    copies, with the one-copy mean and uncertainty of A. Returns
    (sum_g N_g abar_g / N, sqrt(sum_g N_g delta_g^2) / N) with N = sum_g N_g;
    for N identical copies the residual is delta/sqrt(N). Counts may be any
    size whose float stays finite.
    """
    total = 0
    abar_sum = 0.0
    var_sum = 0.0
    for count, abar, delta in moments:
        total += count
        abar_sum += count * abar
        var_sum += count * delta ** 2
    return abar_sum / total, math.sqrt(var_sum) / total


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
