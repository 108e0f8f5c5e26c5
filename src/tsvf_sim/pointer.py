"""Gaussian measuring-device model.

A pointer starts in the Gaussian wavefunction
phi(q) = (2 pi sigma^2)^(-1/4) exp(-(q - mean)^2 / (4 sigma^2)),
so |phi|^2 is a normal density with standard deviation sigma. An impulsive
coupling of strength g to an observable A shifts the pointer of the eigenvalue-a
branch by g*a. Readout statistics are handled analytically as Gaussian
mixtures; a grid is used only when drawing Monte Carlo samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InvariantError,
    NotInStrongRegime,
    PostSelectionImpossible,
)
from .hilbert import ATOL_EXACT, HermitianOperator, StateVector

GRID_POINTS = 2 ** 14
GRID_TAIL_SIGMAS = 10.0
# Below this, a post-selection state is treated as orthogonal to all branches.
MIN_SUCCESS_PROB = 1e-300
# Branch amplitudes with |alpha|^2 at or below this are dropped from the joint state.
NEGLIGIBLE_WEIGHT = 1e-28


@dataclass(frozen=True, eq=False)
class GaussianPointer:
    """Gaussian pointer wavefunction with the given spread and center."""

    sigma: float
    mean: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise InvariantError("pointer sigma must be positive")

    def amplitude(self, q):
        """Wavefunction value phi(q); |phi|^2 integrates to 1."""
        s2 = self.sigma ** 2
        return (2.0 * np.pi * s2) ** -0.25 * np.exp(-((q - self.mean) ** 2) / (4.0 * s2))

    def density(self, q):
        """Probability density |phi(q)|^2."""
        s2 = self.sigma ** 2
        return np.exp(-((q - self.mean) ** 2) / (2.0 * s2)) / np.sqrt(2.0 * np.pi * s2)


@dataclass(frozen=True, eq=False)
class PointerBranch:
    """One eigenvalue branch of a coupled system-pointer state."""

    eigenvalue: float
    amplitude: complex
    state: StateVector  # normalized system state of the branch
    pointer: GaussianPointer


@dataclass(frozen=True, eq=False)
class JointPointerState:
    """Entangled system-pointer state sum_i alpha_i |b_i> (x) |phi(q - g a_i)>."""

    terms: tuple[PointerBranch, ...]
    coupling: float
    sigma: float

    def __post_init__(self):
        if not self.terms:
            raise InvariantError("joint state needs at least one branch")
        total = sum(abs(t.amplitude) ** 2 for t in self.terms)
        if abs(total - 1.0) > ATOL_EXACT:
            raise InvariantError("branch weights do not sum to 1 within 1e-12")
        for t in self.terms:
            target = self.coupling * t.eigenvalue
            if abs(t.pointer.mean - target) > ATOL_EXACT * max(1.0, abs(target)):
                raise InvariantError("branch pointer mean differs from g * eigenvalue")

    @property
    def system_dim(self) -> int:
        return self.terms[0].state.dim

    def branch_means(self) -> np.ndarray:
        return np.array([t.pointer.mean for t in self.terms])


def couple(psi: StateVector, op: HermitianOperator, g: float, sigma: float) -> JointPointerState:
    """Impulsively couple a normalized system state to an observable.

    Expands psi over the eigenbranches of op; a degenerate eigenvalue
    contributes a single term whose amplitude is the norm of the projection and
    whose branch state is the normalized projection. Branches with negligible
    weight are dropped, and each surviving branch carries a pointer shifted to
    g times its eigenvalue.
    """
    if psi.dim != op.dim:
        raise DimensionError(f"state dim {psi.dim} != operator dim {op.dim}")
    terms = []
    for branch in op.branches:
        if branch.multiplicity == 1:
            vec = branch.vectors[:, 0]
            amp = complex(np.vdot(vec, psi.amps))
            state_amps = vec
        else:
            proj = branch.project(psi.amps)
            amp = complex(np.linalg.norm(proj))
            if abs(amp) ** 2 <= NEGLIGIBLE_WEIGHT:
                continue
            state_amps = proj / amp
        if abs(amp) ** 2 <= NEGLIGIBLE_WEIGHT:
            continue
        terms.append(
            PointerBranch(
                eigenvalue=branch.eigenvalue,
                amplitude=amp,
                state=StateVector(state_amps),
                pointer=GaussianPointer(sigma=sigma, mean=g * branch.eigenvalue),
            )
        )
    return JointPointerState(terms=tuple(terms), coupling=g, sigma=sigma)


@dataclass(frozen=True, eq=False)
class ReadoutDensity:
    """Probability density of a pointer reading, in closed form.

    Without post-selection the density is the incoherent mixture
    f(q) = sum_i |alpha_i|^2 G_sigma(q - g a_i), whose branches never interfere
    because the system states attached to them are orthogonal. With
    post-selection the system is projected out first, leaving the coherent sum
    f(q) proportional to |sum_i alpha_i <post|b_i> G_sigma^(1/2)(q - g a_i)|^2,
    and `success_prob` is the integral of the unnormalized density, i.e. the
    exact post-selection probability on the coupled state.
    """

    means: np.ndarray
    sigma: float
    success_prob: float
    weights: np.ndarray | None = None  # incoherent case: |alpha_i|^2
    coeffs: np.ndarray | None = None  # coherent case: alpha_i <post|b_i>
    center: float = 0.0  # pre-coupling pointer mean, anchors the sampling grid

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float).copy()
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        for name in ("weights", "coeffs"):
            val = getattr(self, name)
            if val is not None:
                val = np.asarray(val).copy()
                val.setflags(write=False)
                object.__setattr__(self, name, val)

    def _overlaps(self) -> np.ndarray:
        # integral of G^(1/2)(q - mu_i) G^(1/2)(q - mu_j) dq for equal sigmas
        d = np.subtract.outer(self.means, self.means)
        return np.exp(-(d ** 2) / (8.0 * self.sigma ** 2))

    def _gram(self) -> np.ndarray:
        return np.real(np.outer(self.coeffs, self.coeffs.conj()) * self._overlaps())

    def pdf(self, q):
        """Normalized density value(s) at q."""
        q = np.asarray(q, dtype=float)
        s2 = self.sigma ** 2
        if self.coeffs is None:
            comps = np.exp(-((q[..., None] - self.means) ** 2) / (2.0 * s2))
            out = (self.weights * comps).sum(axis=-1) / np.sqrt(2.0 * np.pi * s2)
        else:
            amps = (2.0 * np.pi * s2) ** -0.25 * np.exp(
                -((q[..., None] - self.means) ** 2) / (4.0 * s2)
            )
            out = np.abs((self.coeffs * amps).sum(axis=-1)) ** 2 / self.success_prob
        return out if out.ndim else float(out)

    def mean(self) -> float:
        """Exact first moment of the density (no quadrature, no sampling noise)."""
        if self.coeffs is None:
            return float(np.sum(self.weights * self.means))
        g = self._gram()
        pair_mid = np.add.outer(self.means, self.means) / 2.0
        return float((g * pair_mid).sum() / g.sum())

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        # Covers every branch mean to >= GRID_TAIL_SIGMAS standard deviations;
        # total mass outside is below 1e-20.
        spread = float(np.max(np.abs(self.means - self.center))) if self.means.size else 0.0
        half = GRID_TAIL_SIGMAS * self.sigma + spread
        x = np.linspace(self.center - half, self.center + half, GRID_POINTS)
        cw = np.cumsum(self.pdf(x))
        return x, cw

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw reading(s) by inverse CDF on the fixed grid (deterministic per seed)."""
        x, cw = self._grid
        n = 1 if size is None else int(size)
        u = rng.random(n) * cw[-1]
        idx = np.clip(np.searchsorted(cw, u), 0, len(x) - 1)
        below = np.where(idx > 0, cw[idx - 1], 0.0)
        frac = (u - below) / np.maximum(cw[idx] - below, MIN_SUCCESS_PROB)
        h = x[1] - x[0]
        q = x[idx] - h / 2.0 + frac * h
        return float(q[0]) if size is None else q


def readout_density(joint: JointPointerState, post: StateVector | None = None) -> ReadoutDensity:
    """Readout density of the coupled state, optionally post-selected on `post`.

    Raises PostSelectionImpossible when `post` is orthogonal to every branch.
    """
    means = joint.branch_means()
    if post is None:
        weights = np.array([abs(t.amplitude) ** 2 for t in joint.terms])
        return ReadoutDensity(means=means, sigma=joint.sigma, success_prob=1.0, weights=weights)
    if post.dim != joint.system_dim:
        raise DimensionError(
            f"post-selection dim {post.dim} != system dim {joint.system_dim}"
        )
    coeffs = np.array(
        [t.amplitude * np.vdot(post.amps, t.state.amps) for t in joint.terms]
    )
    probe = ReadoutDensity(means=means, sigma=joint.sigma, success_prob=1.0, coeffs=coeffs)
    success = max(float(probe._gram().sum()), 0.0)
    if success < MIN_SUCCESS_PROB:
        raise PostSelectionImpossible("post-selection state is orthogonal to all branches")
    return ReadoutDensity(means=means, sigma=joint.sigma, success_prob=success, coeffs=coeffs)


def classify_strong(q: float, joint: JointPointerState) -> int:
    """Map a reading to the branch with the nearest pointer mean.

    Only valid in the strong regime: every pair of branch means must be more
    than 6 sigma apart, which bounds the misclassification probability per
    trial by erfc(3/sqrt(2)). Returns the index into joint.terms.
    """
    means = joint.branch_means()
    if len(means) > 1:
        gaps = np.abs(np.subtract.outer(means, means))
        min_gap = float(np.min(gaps[~np.eye(len(means), dtype=bool)]))
        if not min_gap > 6.0 * joint.sigma:
            raise NotInStrongRegime(
                f"smallest branch separation {min_gap:.6g} is not above "
                f"6 sigma = {6.0 * joint.sigma:.6g}"
            )
    return int(np.argmin(np.abs(means - q)))
