"""Strong and weak measurements on pre- and post-selected systems.

A TwoState pairs a forward-evolving state |psi> with a backward-evolving state
<phi|. The weak value <phi|A|psi>/<phi|psi> is the quantity a gently coupled
pointer reads out on average, and it can lie far outside the spectrum of A when
the two states are nearly orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NoAcceptedTrials, require_count
from .hilbert import HermitianOperator, StateVector, _readonly, inner
from .pointer import _inverse_cdf, readout_density

# Pre/post overlaps at or below this are treated as orthogonal: no weak value exists.
MIN_OVERLAP = 1e-12


@dataclass(frozen=True, eq=False)
class TwoState:
    """Pre- and post-selected pair with its overlap <backward|forward>."""

    forward: StateVector
    backward: StateVector
    overlap: complex = field(init=False)  # computed at construction

    def __post_init__(self):
        if self.forward.dim != self.backward.dim:
            raise InvariantError(
                f"forward dim {self.forward.dim} != backward dim {self.backward.dim}"
            )
        self.forward.require_normalized("forward state")
        self.backward.require_normalized("backward state")
        ov = inner(self.backward, self.forward)
        if not abs(ov) > MIN_OVERLAP:  # NaN fails too
            raise InvariantError(
                f"|overlap| = {abs(ov):.3e} is at or below the threshold {MIN_OVERLAP:.3e}"
            )
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
        object.__setattr__(self, "samples", _readonly(self.samples, float))


def strong_measure(
    psi: StateVector, op: HermitianOperator, rng: np.random.Generator
) -> MeasurementRecord:
    """Projective measurement of op on psi with Born-rule sampling.

    Degenerate eigenvalues form a single outcome whose projector covers the
    whole eigenspace, so measuring the identity returns psi unchanged.
    """
    eigenvalues, weights, projections = op.born_branches(psi)
    k = int(_inverse_cdf(np.cumsum(weights), rng.random()))
    return MeasurementRecord(outcome=float(eigenvalues[k]),
                             collapsed=StateVector(projections[k]).normalize(),
                             probability=float(weights[k]))


def weak_value(ts: TwoState, op: HermitianOperator) -> complex:
    """Weak value <phi|A|psi> / <phi|psi> (complex in general)."""
    numerator = complex(np.vdot(ts.backward.amps, op.apply(ts.forward)))
    return numerator / ts.overlap


def weak_estimate(
    ts: TwoState,
    op: HermitianOperator,
    g: float,
    sigma: float,
    trials: int,
    rng: np.random.Generator,
) -> WeakEstimate:
    """Run many weak trials and aggregate the accepted readings.

    Each trial couples, post-selects on the coupled state and reads out the
    pointer. The post-selection probability comes from the readout density of
    the coupled state, so it includes the coupling disturbance exactly rather
    than to first order. The coupled state and readout density are identical
    across trials, so one binomial draw (the exact law of the per-trial
    Bernoulli sum, with success_prob clamped to 1 against rounding) counts the
    accepted trials, then one exact batch of readings is drawn for them.
    Results are deterministic for a fixed rng seed.
    """
    trials = require_count("trials", trials, 1, np.iinfo("l").max)  # binomial takes a C long
    density = readout_density(ts.forward, op, g, sigma, post=ts.backward)
    accepted = int(rng.binomial(trials, min(density.success_prob, 1.0)))
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
