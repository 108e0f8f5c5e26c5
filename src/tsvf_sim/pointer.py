"""Gaussian measuring-device model.

A pointer starts in the Gaussian wavefunction
phi(q) = (2 pi sigma^2)^(-1/4) exp(-(q - mean)^2 / (4 sigma^2)),
so |phi|^2 is a normal density with standard deviation sigma. An impulsive
coupling of strength g to an observable A shifts the pointer of the eigenvalue-a
branch by g*a, so the Born expansion of the system state (its branches'
weights and projections), g and sigma fix every reading. `readout_density`
builds the reading's density straight from that expansion, as a signed
Gaussian mixture: its density, moments and post-selection probability are
closed forms, and Monte Carlo readings are drawn from it exactly by rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    SCALE_MAX,
    SIGMA_DOMAIN,
    InvariantError,
    NoAcceptedTrials,
    require_count,
    require_in,
)
from .hilbert import HermitianOperator, StateVector, _readonly
from .twotime import _dot_over

# One block of random draws holds at most this many values: for the sampler,
# kernel values (proposals x mixture components). At 128 KiB per float array,
# a block's arrays stay small beside numpy's own import.
SAMPLE_BLOCK_CELLS = 2 ** 14
# Below this, a post-selection state is treated as orthogonal to all branches.
MIN_SUCCESS_PROB = 1e-300
# Branches with Born weight at or below this are dropped from a readout density.
NEGLIGIBLE_WEIGHT = 1e-28
# Rejection needs about 1/acceptance proposals per reading, so below this
# acceptance a sample would take more than about 10^12 proposals per reading.
MIN_ACCEPTANCE = 1e-12


def _inverse_cdf(cum: np.ndarray, u):
    """Index k of each uniform draw u in [0, 1) under the cumulative weights cum.

    cum is np.cumsum of non-negative weights with a positive total. side="right",
    so a draw on a cumulative weight never picks a zero-weight index, and the
    index is clipped in case u * cum[-1] rounds up to the total.
    """
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)


@dataclass(frozen=True, eq=False)
class ReadoutDensity:
    """Probability density of a pointer reading, as a signed Gaussian mixture.

    f(q) = sum_k w_k N(q; mu_k, sigma^2) / sum_k w_k. Without post-selection
    the components are the branches, centred at m_i = g a_i with their Born
    weights w_i, which never interfere because the system projections p_i
    attached to them are orthogonal. With post-selection the coherent square
    |sum_i c_i phi(q - m_i)|^2, with c_i = <post|p_i>, expands into one
    component per branch pair i <= j, centred at (m_i + m_j)/2 with the weight
    (2 - delta_ij) Re(c_i c_j*) exp(-(m_i - m_j)^2 / (8 sigma^2)), which can
    be negative. The weights sum to `success_prob`, the exact post-selection
    probability on the coupled state (1 without post-selection).
    """

    means: np.ndarray
    weights: np.ndarray
    sigma: float

    def __post_init__(self):
        require_in("pointer sigma", self.sigma, SIGMA_DOMAIN)
        for name in ("means", "weights"):
            object.__setattr__(self, name, _readonly(getattr(self, name), float))
        if self.means.ndim != 1 or self.means.size == 0 or self.means.shape != self.weights.shape:
            raise InvariantError("means and weights must be non-empty 1-d arrays of equal length")
        if not np.abs(self.means).max() <= SCALE_MAX * min(self.sigma, 1.0):
            raise InvariantError(f"every |mean| must be at most {SCALE_MAX} "
                                 f"and at most {SCALE_MAX} sigma")
        if not np.isfinite(self.weights).all():
            raise InvariantError("readout weights must be finite")
        # Rejection sampling proposes from the positive weights and keeps a
        # proposal with probability f/f+, so both sums must be positive, and
        # finite: finite weights can still sum past the float range.
        with np.errstate(over="ignore"):
            total, positive = self.weights.sum(), np.maximum(self.weights, 0.0).sum()
        if not (total > 0.0 and positive < np.inf):
            raise InvariantError("a readout density needs a positive weight sum, "
                                 "and a finite sum of its positive weights")

    @property
    def success_prob(self) -> float:
        """Sum of the weights: the post-selection probability."""
        return float(self.weights.sum())

    def _kernels(self, q: np.ndarray) -> np.ndarray:
        # exp(-(q - mu_k)^2 / (2 sigma^2)) for every q and component k
        return np.exp(-((q[..., None] - self.means) ** 2) / (2.0 * self.sigma ** 2))

    def pdf(self, q):
        """Normalized density value(s) at finite reading(s) q; +-inf beyond the float range."""
        q = np.asarray(q, dtype=float)
        if not np.isfinite(q).all():
            raise InvariantError("readings q must be finite")
        norm = np.sqrt(2.0 * np.pi) * self.sigma
        # A far reading's square overflows to a zero kernel. Dividing by the
        # weight sum before sigma keeps their product from underflowing to 0.
        with np.errstate(over="ignore"):
            out = self._kernels(q) @ self.weights / self.success_prob / norm
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """Exact first moment rounded once (no quadrature or noise); +-inf past the float range."""
        return _dot_over(self.weights.tolist(), self.means.tolist(), self.success_prob)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` readings exactly, by rejection from the positive part of the mixture.

        A proposal picks component k with probability max(w_k, 0) / sum max(w, 0),
        draws q = mu_k + sigma z, and is kept with probability f(q) / f+(q), where
        f+ is the mixture of the positive weights alone. Proposals come in fixed
        blocks of SAMPLE_BLOCK_CELLS kernel values, so memory stays bounded, and
        sample(rng, n) is the first n readings of a stream fixed by rng and density.
        Raises NoAcceptedTrials when the acceptance, success_prob over the
        positive weights' sum, is below MIN_ACCEPTANCE. Deterministic for a
        fixed rng seed.
        """
        # At most the float64 count that np.empty can size; beyond it numpy raises ValueError.
        n = require_count("sample size", size, 0, np.iinfo(np.intp).max // 8)
        positive = np.maximum(self.weights, 0.0)
        cum = np.cumsum(positive)
        acceptance = self.success_prob / cum[-1]
        if not acceptance >= MIN_ACCEPTANCE:
            raise NoAcceptedTrials(f"sampling acceptance {acceptance:.3e} is below "
                                   f"{MIN_ACCEPTANCE:g}: the weights nearly cancel")
        block = max(SAMPLE_BLOCK_CELLS // self.means.size, 1)
        out = np.empty(n)
        filled = 0
        while filled < n:
            q = self.means[_inverse_cdf(cum, rng.random(block))]
            q = q + self.sigma * rng.standard_normal(block)
            kernels = self._kernels(q)
            q = q[rng.random(block) * (kernels @ positive) < kernels @ self.weights]
            take = min(q.size, n - filled)
            out[filled:filled + take] = q[:take]
            filled += take
        return out


def readout_density(
    psi: StateVector,
    op: HermitianOperator,
    g: float,
    sigma: float,
    post: StateVector | None = None,
) -> ReadoutDensity:
    """Readout density after impulsively coupling psi to op, optionally post-selected on `post`.

    Reads the aligned arrays of op.born_branches(psi), the expansion a
    projective measurement samples, so a degenerate eigenvalue is one branch.
    Each branch whose Born weight is above NEGLIGIBLE_WEIGHT is one component
    centred at g times its eigenvalue; with post-selection its projection p
    gives c = <post|p>. Raises NoAcceptedTrials when `post` is orthogonal
    to every branch: post-selection would accept no trial.
    """
    require_in("coupling g", g, (-np.inf, np.inf))
    eigenvalues, weights, projections = op.born_branches(psi)
    kept = weights > NEGLIGIBLE_WEIGHT
    means = np.array([g * a for a in eigenvalues[kept].tolist()])
    # Built first, so sigma is validated before the pair overlaps divide by it.
    unselected = ReadoutDensity(means=means, weights=weights[kept], sigma=sigma)
    if post is None:
        return unselected
    if post.dim != psi.dim:
        raise InvariantError(f"post-selection dim {post.dim} != system dim {psi.dim}")
    c = np.array([np.vdot(post.amps, p) for p in projections[kept]])
    i, j = np.triu_indices(c.size)
    overlap = np.exp(-((means[i] - means[j]) ** 2) / (8.0 * sigma ** 2))
    pair_weights = (2 - (i == j)) * np.real(c[i] * c[j].conj()) * overlap
    if not pair_weights.sum() >= MIN_SUCCESS_PROB:
        raise NoAcceptedTrials("post-selection state is orthogonal to all branches")
    return ReadoutDensity(means=(means[i] + means[j]) / 2.0, weights=pair_weights, sigma=sigma)
