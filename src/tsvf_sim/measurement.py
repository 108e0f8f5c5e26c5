"""Strong and weak measurements on pre- and post-selected systems.

A TwoState pairs a forward-evolving state |psi> with a backward-evolving state
<phi|. The weak value <phi|A|psi>/<phi|psi> is the quantity a gently coupled
pointer reads out on average, and it can lie far outside the spectrum of A when
the two states are nearly orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvariantError,
    NearOrthogonalPrePost,
    NoAcceptedTrials,
)
from .hilbert import ATOL_EXACT, HermitianOperator, StateVector, inner
from .pointer import couple, readout_density, sample_reading

# Overlaps at or below this are treated as orthogonal for weak values; callers
# chasing extreme anomalous values must lower it explicitly.
DEFAULT_MIN_OVERLAP = 1e-12


@dataclass(frozen=True, eq=False)
class TwoState:
    """Pre- and post-selected pair with its overlap <backward|forward>."""

    forward: StateVector
    backward: StateVector
    overlap: complex = 0j  # computed at construction

    def __post_init__(self):
        if self.forward.dim != self.backward.dim:
            raise DimensionError(
                f"forward dim {self.forward.dim} != backward dim {self.backward.dim}"
            )
        for name in ("forward", "backward"):
            if abs(getattr(self, name).norm() - 1.0) > ATOL_EXACT:
                raise InvariantError(f"{name} state must be normalized")
        ov = inner(self.backward, self.forward)
        if abs(ov) == 0.0:
            raise NearOrthogonalPrePost("forward and backward states are exactly orthogonal")
        object.__setattr__(self, "overlap", ov)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome of one projective measurement."""

    outcome: float
    collapsed: StateVector
    probability: float


@dataclass(frozen=True, eq=False)
class WeakEstimate:
    """Aggregated weak-measurement statistics over many trials."""

    mean: float
    stderr: float
    acceptance_rate: float
    accepted: int
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def _born_branches(psi: StateVector, op: HermitianOperator):
    """Branch projections of psi, their Born weights and the weights' total."""
    if psi.dim != op.dim:
        raise DimensionError(f"state dim {psi.dim} != operator dim {op.dim}")
    projections = [b.project(psi.amps) for b in op.branches]
    weights = np.array([float(np.real(np.vdot(p, p))) for p in projections])
    total = weights.sum()
    if not abs(total - 1.0) <= 1e-10:
        raise InvariantError("branch probabilities do not sum to 1; is psi normalized?")
    return projections, weights, total


def _pick_branches(weights: np.ndarray, total: float, u):
    """Branch index for each uniform draw u in [0, 1), by inverse CDF."""
    k = np.searchsorted(np.cumsum(weights), u * total)
    return np.minimum(k, len(weights) - 1)


def strong_measure(
    psi: StateVector, op: HermitianOperator, rng: np.random.Generator
) -> MeasurementRecord:
    """Projective measurement of op on psi with Born-rule sampling.

    Degenerate eigenvalues form a single outcome whose projector covers the
    whole eigenspace, so measuring the identity returns psi unchanged.
    """
    projections, weights, total = _born_branches(psi, op)
    k = int(_pick_branches(weights, total, rng.random()))
    p = weights[k]
    collapsed = StateVector(projections[k]).normalize()
    return MeasurementRecord(
        outcome=op.branches[k].eigenvalue, collapsed=collapsed, probability=float(p)
    )


def measure_outcomes(
    psi: StateVector, op: HermitianOperator, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Outcomes of `size` independent projective measurements of op on psi.

    Draws one rng.random(size) batch, which the Generator fills with the same
    doubles as `size` successive rng.random() calls, so the result equals
    [strong_measure(psi, op, rng).outcome for _ in range(size)] exactly.
    """
    _, weights, total = _born_branches(psi, op)
    eigenvalues = np.array([b.eigenvalue for b in op.branches])
    return eigenvalues[_pick_branches(weights, total, rng.random(size))]


def post_select(psi: StateVector, phi: StateVector, rng: np.random.Generator) -> bool:
    """Bernoulli post-selection of phi on psi with success probability |<phi|psi>|^2."""
    return bool(rng.random() < abs(inner(phi, psi)) ** 2)


def weak_value(
    ts: TwoState, op: HermitianOperator, min_overlap: float = DEFAULT_MIN_OVERLAP
) -> complex:
    """Weak value <phi|A|psi> / <phi|psi> (complex in general)."""
    if abs(ts.overlap) <= min_overlap:
        raise NearOrthogonalPrePost(
            f"|overlap| = {abs(ts.overlap):.3e} is at or below the threshold {min_overlap:.3e}"
        )
    numerator = complex(np.vdot(ts.backward.amps, op.apply(ts.forward)))
    return numerator / ts.overlap


def weak_trial(
    ts: TwoState,
    op: HermitianOperator,
    g: float,
    sigma: float,
    rng: np.random.Generator,
) -> float | None:
    """One weakly coupled trial: couple, post-select on the coupled state, read out.

    The post-selection probability comes from the readout density of the
    coupled state, so it includes the coupling disturbance exactly rather than
    to first order. Returns the pointer reading, or None when post-selection
    fails (an expected outcome, not an error).
    """
    joint = couple(ts.forward, op, g, sigma)
    return sample_reading(joint, ts.backward, rng)


def weak_estimate(
    ts: TwoState,
    op: HermitianOperator,
    g: float,
    sigma: float,
    trials: int,
    rng: np.random.Generator,
) -> WeakEstimate:
    """Run many weak trials and aggregate the accepted readings.

    The coupled state and readout density are identical across trials, so the
    per-trial draws are vectorized: one Bernoulli array for post-selection, one
    inverse-CDF batch for the accepted readings. The sampled distribution is
    exactly the one weak_trial draws from, and results are deterministic for a
    fixed rng seed.
    """
    if trials < 1:
        raise InvariantError("trials must be at least 1")
    joint = couple(ts.forward, op, g, sigma)
    density = readout_density(joint, post=ts.backward)
    accepted = int(np.count_nonzero(rng.random(trials) < density.success_prob))
    if accepted == 0:
        raise NoAcceptedTrials(
            f"0 of {trials} trials passed post-selection "
            f"(success probability {density.success_prob:.3e})"
        )
    samples = density.sample(rng, size=accepted)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(accepted)) if accepted > 1 else float("inf")
    return WeakEstimate(
        mean=mean,
        stderr=stderr,
        acceptance_rate=accepted / trials,
        accepted=accepted,
        samples=samples,
    )
