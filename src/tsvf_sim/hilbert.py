"""Finite-dimensional complex Hilbert space primitives.

States, Hermitian operators with their eigenbranches, projectors and inner
products, with validation at construction time. Eigenbranches and the Born
expansion of a state are handed out as aligned arrays, not per-branch objects.

Conventions used package-wide: hbar = 1; tensor products are ``np.kron`` of
amplitude vectors, row-major, i.e. the left factor varies slowest, so
``np.kron([1, 0], [0, 1])``, |0> (x) |1>, is (0, 1, 0, 0);
inner products are conjugate-linear in the first argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ATOL_EXACT, SCALE_MAX, InvariantError

# Tolerance for quantities that pass through the eigensolver: eigenvalue
# grouping and the sum of Born weights.
ATOL_EIG = 1e-10


def _readonly(a, dtype=complex) -> np.ndarray:
    """A write-protected copy of a as an array of the given dtype."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _norm(vector) -> float:
    """The package's one Euclidean norm: math.hypot squares no entry, so none overflows."""
    return math.hypot(*np.abs(vector).tolist())


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state as a 1-d complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise InvariantError("state amplitudes must form a non-empty 1-d vector")
        object.__setattr__(self, "amps", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return _norm(self.amps)

    def require_normalized(self, what: str) -> None:
        """Raise InvariantError unless the norm is 1 within ATOL_EXACT."""
        if not abs(self.norm() - 1.0) <= ATOL_EXACT:
            raise InvariantError(f"{what} must be normalized")

    def normalize(self) -> "StateVector":
        """Return the unit-norm version of this state."""
        n = self.norm()
        if not 1e-300 <= n < np.inf:  # NaN fails too
            raise InvariantError("cannot normalize a zero or non-finite vector")
        return StateVector(self.amps / n)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix acting on a single Hilbert space factor."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvariantError("operator entries must form a square matrix")
        # As for a readout density's means, so eigenvalue gaps and weak values stay finite.
        if not np.abs(m).max() <= SCALE_MAX:  # NaN fails too
            raise InvariantError(f"operator entries must be finite and at most {SCALE_MAX} "
                                 "in modulus")
        if not np.allclose(m, m.conj().T, atol=ATOL_EXACT, rtol=0.0):
            raise InvariantError("operator is not Hermitian within 1e-12")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: StateVector) -> np.ndarray:
        """A|psi> as a raw (generally unnormalized) amplitude vector."""
        if psi.dim != self.dim:
            raise InvariantError(f"operator dim {self.dim} != state dim {psi.dim}")
        return self.entries @ psi.amps

    def expectation(self, psi: StateVector) -> float:
        """<psi|A|psi>, real for Hermitian A."""
        return float(np.real(np.vdot(psi.amps, self.apply(psi))))

    @cached_property
    def branches(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(eigenvalues ascending, degenerate ones merged; their frozen eigenvector blocks).

        bases[k] has shape (dim, multiplicity of eigenvalues[k]), columns orthonormal.
        """
        w, v = np.linalg.eigh(self.entries)
        tol = ATOL_EIG * max(1.0, float(np.max(np.abs(w))))
        values, bases = [], []
        start = 0
        for k in range(1, len(w) + 1):
            if k == len(w) or w[k] - w[start] > tol:
                values.append(float(np.mean(w[start:k])))
                bases.append(_readonly(v[:, start:k]))
                start = k
        return _readonly(values, float), tuple(bases)

    def born_branches(self, psi: StateVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aligned arrays (eigenvalues (k,), Born weights Re<p|p> (k,), projections p (k, dim)).

        The weights pass through the eigensolver, so they must sum to 1 within ATOL_EIG.
        """
        if psi.dim != self.dim:
            raise InvariantError(f"state dim {psi.dim} != operator dim {self.dim}")
        eigenvalues, bases = self.branches
        projections = np.array([b @ (b.conj().T @ psi.amps) for b in bases])
        weights = np.array([np.vdot(p, p).real for p in projections])
        if not abs(np.sum(weights) - 1.0) <= ATOL_EIG:
            raise InvariantError("branch probabilities do not sum to 1; is psi normalized?")
        return eigenvalues, weights, projections


def projector(psi: StateVector) -> HermitianOperator:
    """Rank-one projector |psi><psi| onto a normalized state."""
    psi.require_normalized("projector state")
    return HermitianOperator(np.outer(psi.amps, psi.amps.conj()))


SIGMA_Z = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise InvariantError(f"inner product dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))
