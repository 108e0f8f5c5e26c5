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
Ratios are evaluated in the log domain, so any N that fits in a float is safe.

The module also holds the ensemble reduction behind the 1/sqrt(N) law:
averaging a one-copy observable over a product ensemble leaves mean
sum_g N_g abar_g / N and residual sqrt(sum_g N_g delta_g^2) / N, from each
group's one-copy moments. `ensemble.average_operator_residual` and the
`convergence` experiment both reduce through `ensemble_average`.

Everything here is scalar arithmetic on floats and Python ints, so this module
does not import numpy; the dense branch states that check it live in `branches`.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .errors import (
    ATOL_EXACT,
    NON_NEGATIVE,
    POSITIVE,
    InvariantError,
    require_count,
    require_in,
)

CLASSICAL_RATIO_THRESHOLD = 1e6
# Inclusive domains of the record model's single values, read by the model and
# by the robustness and threshold parameters alike. The overlaps c and gamma2
# stay below 1, so the wrong branch's record always differs from the right one.
COLLAPSED_DOMAIN = (0, math.inf)
OVERLAP_DOMAIN = (0.0, math.nextafter(1.0, 0.0))
GAMMA1_DOMAIN = (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class RobustnessModel:
    """Amplified two-branch superposition with a partially collapsing record.

    alpha, beta weight branches I and II (|alpha|^2 + |beta|^2 = 1); env_size
    is the number N of record qubits; overlap is the per-qubit record overlap
    c in OVERLAP_DOMAIN; n_collapsed, below env_size, is how many qubits later
    collapse; gamma1 (GAMMA1_DOMAIN) and gamma2 (OVERLAP_DOMAIN) are the
    collapse overlaps shared by every collapsed qubit. Every range is checked
    whatever n_collapsed is; gamma1 = 0 is rejected only when a qubit collapses.
    With nothing collapsed the gammas take no part in the model.
    """

    alpha: complex
    beta: complex
    env_size: int
    overlap: float
    n_collapsed: int = 0
    gamma1: float = 1.0
    gamma2: float = 0.0

    def __post_init__(self):
        try:
            a, b = float(abs(self.alpha)), float(abs(self.beta))
        except TypeError:
            raise InvariantError("alpha and beta must be numbers") from None
        if not abs(a * a + b * b - 1.0) <= ATOL_EXACT:  # a * a overflows to inf, a ** 2 raises
            raise InvariantError("|alpha|^2 + |beta|^2 must equal 1 within 1e-12")
        for name, low in (("env_size", 1), ("n_collapsed", 0)):
            object.__setattr__(self, name, require_count(name, getattr(self, name), low))
        for name, domain in (("n_collapsed", COLLAPSED_DOMAIN), ("overlap", OVERLAP_DOMAIN),
                             ("gamma1", GAMMA1_DOMAIN), ("gamma2", OVERLAP_DOMAIN)):
            require_in(name, getattr(self, name), domain)
        object.__setattr__(self, "gamma1", float(self.gamma1))
        object.__setattr__(self, "gamma2", float(self.gamma2))
        if not self.n_collapsed < self.env_size:
            raise InvariantError(f"n_collapsed = {self.n_collapsed} must be below "
                                 f"env_size = {self.env_size}")
        if self.n_collapsed >= 1 and self.gamma1 == 0.0:
            raise InvariantError(
                "gamma1 = 0 would make a collapse orthogonal to the recorded branch"
            )

    @property
    def remaining(self) -> int:
        """Record qubits that never collapse."""
        return self.env_size - self.n_collapsed


def log_robustness_ratio(model: RobustnessModel) -> float:
    """Natural log of the robustness ratio, +-inf beyond the float range; counts fit a float."""
    n = model.n_collapsed
    if model.overlap == 0.0 or (n >= 1 and model.gamma2 == 0.0):
        return float("inf")
    s = 2.0 ** -12  # exact, as no scaled log is subnormal, and no scaled term overflows
    try:
        log_ratio = model.remaining * (-2.0 * math.log(model.overlap) * s)
        if n >= 1:
            log_ratio += 2.0 * (n * (math.log(model.gamma1) * s)
                                - n * (math.log(model.gamma2) * s))
    except OverflowError:
        raise InvariantError("env_size and n_collapsed must fit in a float") from None
    return log_ratio / s


def robustness_ratio(model: RobustnessModel) -> float:
    """Pr(right reading) / Pr(wrong reading) for the collapsed record.

    Closed form gamma1^(2n) / (c^(2(N-n)) gamma2^(2n)); +inf when the wrong branch is
    perfectly distinguishable (c = 0, or gamma2 = 0 with n >= 1) or on overflow, 0.0 on
    underflow. This models the reading as encoded in the N-qubit record; the ideal
    uncollapsed case with the bare orthogonal pointer reconstructs perfectly instead
    (see branches.select_by_final and the n = 0 oracle).
    """
    try:
        return math.exp(log_robustness_ratio(model))
    except OverflowError:
        return float("inf")


def core_decay(n0: float, time_constant: float, t: float) -> float:
    """Remaining intact record size N(t) = N0 exp(-t/T)."""
    require_in("initial record size", n0, NON_NEGATIVE)
    require_in("decay time constant", time_constant, POSITIVE)
    require_in("time", t, NON_NEGATIVE)
    return _decay_curve(n0, time_constant, (t,))[0]


def _decay_curve(n0: float, time_constant: float, times: Iterable[float]) -> array:
    """N0 exp(-t/T) at each of `times`, unchecked: callers validate the arguments."""
    return array("d", [n0 * math.exp(-t / time_constant) for t in times])


def _dot_over(weights, values, divisor) -> float:
    """sum_k w_k v_k / divisor (> 0) for ints and finite floats, rounded once; +-inf past floats.

    Each number is an int over a power of two (`as_integer_ratio`), so the quotient is one
    ratio of ints, which int / int rounds correctly: no partial sum overflows or cancels.
    """
    terms = [(w.as_integer_ratio(), v.as_integer_ratio()) for w, v in zip(weights, values)]
    scale = max(b * d for (_, b), (_, d) in terms)
    num = sum(a * c * (scale // (b * d)) for (a, b), (c, d) in terms)
    p, q = divisor.as_integer_ratio()
    try:
        return num * q / (scale * p)
    except OverflowError:  # the quotient is beyond the float range
        return math.inf if num > 0 else -math.inf


def ensemble_average(moments: Iterable[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean and residual of the averaged operator (1/N) sum_i A_i on a product state.

    `moments` holds (N_g, abar_g, delta_g) for each group of N_g (an int) identical
    copies, with the one-copy mean and uncertainty of A. Returns the exactly rounded
    sum_g N_g abar_g / N and the residual hypot_g(sqrt(N_g) delta_g) / N, N = sum_g N_g;
    for N identical copies that is delta/sqrt(N). Counts may be any size whose float stays finite.
    """
    counts, abars, deltas = zip(*moments)
    total = sum(counts)
    residual = math.hypot(*(math.sqrt(n) * delta for n, delta in zip(counts, deltas))) / total
    return _dot_over(counts, abars, total), residual


def classical_threshold(
    n_collapsed: int,
    overlap: float,
    gamma1,
    gamma2,
    ratio_target: float = CLASSICAL_RATIO_THRESHOLD,
) -> int:
    """Smallest record size N for which the robustness ratio reaches the target.

    The float log ratio is non-decreasing in N, so doubling N - n from 1 until
    the target is reached, then bisecting the last doubling, finds the exact
    smallest N in O(log N) evaluations of `log_robustness_ratio`, however flat
    its float staircase is near c = 1. N - n is capped at the largest float;
    if even that record falls short, the needed size overflows a float and
    InvariantError is raised. Arguments are validated as a RobustnessModel
    with a single definite branch, after n_collapsed is checked as a count.
    """
    require_in("ratio_target", ratio_target, POSITIVE)
    n_collapsed = require_count("n_collapsed", n_collapsed, 0)  # before env_size adds 1 to it
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
    limit = n_collapsed + int(sys.float_info.max)
    # The answer lies in (low, high] once low fails (or is n) and high reaches.
    low, high = n_collapsed, n_collapsed + 1
    while not reaches(high):
        if high == limit:
            raise InvariantError("the record size needed overflows a float")
        low, high = high, min(2 * high - n_collapsed, limit)
    while high - low > 1:
        mid = (low + high) // 2
        if reaches(mid):
            high = mid
        else:
            low = mid
    return high
