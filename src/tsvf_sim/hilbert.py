"""Finite-dimensional complex Hilbert space primitives.

States, Hermitian operators, density matrices, tensor products, inner products,
eigendecomposition and partial traces, with validation at construction time.

Conventions used package-wide: hbar = 1; tensor products are row-major, i.e. the
left factor varies slowest, so ``tensor(basis_state(2,0), basis_state(2,0))``
has amplitude vector (1, 0, 0, 0); inner products are conjugate-linear in the
first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import string

import numpy as np

# The oracle bound lives with the errors it gates; it is imported here too
# for callers that take it from hilbert.
from .errors import ATOL_EXACT, ORACLE_MAX_QUBITS, DimensionError, InvariantError, fits_oracle

# Tolerance for quantities that pass through the eigensolver.
ATOL_EIG = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state as a 1-d complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise DimensionError("state amplitudes must form a non-empty 1-d vector")
        object.__setattr__(self, "amps", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "StateVector":
        """Return the unit-norm version of this state."""
        n = self.norm()
        if n < 1e-300:
            raise InvariantError("cannot normalize a zero vector")
        return StateVector(self.amps / n)

    def density_matrix(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi| (state must be normalized)."""
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True, eq=False)
class EigenBranch:
    """One (possibly degenerate) eigenvalue with an orthonormal subspace basis."""

    eigenvalue: float
    vectors: np.ndarray  # shape (dim, multiplicity), columns orthonormal

    @property
    def multiplicity(self) -> int:
        return self.vectors.shape[1]

    def project(self, amps: np.ndarray) -> np.ndarray:
        """Apply the subspace projector to an amplitude vector."""
        return self.vectors @ (self.vectors.conj().T @ amps)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix acting on a single Hilbert space factor."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionError("operator entries must form a square matrix")
        if not np.allclose(m, m.conj().T, atol=ATOL_EXACT, rtol=0.0):
            raise InvariantError("operator is not Hermitian within 1e-12")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: StateVector) -> np.ndarray:
        """A|psi> as a raw (generally unnormalized) amplitude vector."""
        if psi.dim != self.dim:
            raise DimensionError(f"operator dim {self.dim} != state dim {psi.dim}")
        return self.entries @ psi.amps

    def expectation(self, psi: StateVector) -> float:
        """<psi|A|psi>, real for Hermitian A."""
        return float(np.real(np.vdot(psi.amps, self.apply(psi))))

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(self.entries)
        return w, v

    @cached_property
    def branches(self) -> tuple[EigenBranch, ...]:
        """Eigenvalues ascending, degenerate values merged into one branch."""
        w, v = self._eigensystem
        tol = ATOL_EIG * max(1.0, float(np.max(np.abs(w))))
        groups: list[EigenBranch] = []
        start = 0
        for k in range(1, len(w) + 1):
            if k == len(w) or w[k] - w[start] > tol:
                vecs = v[:, start:k]
                groups.append(EigenBranch(float(np.mean(w[start:k])), _readonly(vecs)))
                start = k
        return tuple(groups)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, positive semidefinite within tolerance."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionError("density matrix entries must form a square matrix")
        if not np.allclose(m, m.conj().T, atol=ATOL_EXACT, rtol=0.0):
            raise InvariantError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m) - 1.0) > ATOL_EXACT:
            raise InvariantError("density matrix trace differs from 1 by more than 1e-12")
        if float(np.min(np.linalg.eigvalsh(m))) < -ATOL_EIG:
            raise InvariantError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in a dim-dimensional space."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def identity(dim: int) -> HermitianOperator:
    """Identity operator."""
    return HermitianOperator(np.eye(dim, dtype=complex))


def projector(psi: StateVector) -> HermitianOperator:
    """Rank-one projector |psi><psi| onto a normalized state."""
    if abs(psi.norm() - 1.0) > ATOL_EXACT:
        raise InvariantError("projector requires a normalized state")
    return HermitianOperator(np.outer(psi.amps, psi.amps.conj()))


SIGMA_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product a (x) b, row-major: the left factor varies slowest."""
    return StateVector(np.kron(a.amps, b.amps))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionError(f"inner product dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def eig_hermitian(op: HermitianOperator | np.ndarray) -> tuple[np.ndarray, list[StateVector]]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian operator.

    A raw matrix argument is validated first, so a non-Hermitian input raises
    InvariantError rather than returning a bogus decomposition.
    """
    if not isinstance(op, HermitianOperator):
        op = HermitianOperator(np.asarray(op))
    w, v = op._eigensystem
    return w.copy(), [StateVector(v[:, k]) for k in range(op.dim)]


def partial_trace(rho: DensityMatrix, dims: list[int], keep: set[int] | list[int]) -> DensityMatrix:
    """Trace out every subsystem not in `keep` from a multipartite density matrix.

    `dims` lists the subsystem dimensions in tensor order; their product must
    equal rho.dim. `keep` is the set of subsystem indices to retain (order in
    the result follows tensor order).
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionError("subsystem dimensions must be positive")
    if int(np.prod(dims)) != rho.dim:
        raise DimensionError(f"product of dims {dims} != density matrix dim {rho.dim}")
    n = len(dims)
    if n > 26:
        raise DimensionError("partial_trace supports at most 26 subsystems")
    keep_list = sorted(set(int(k) for k in keep))
    if not keep_list:
        raise DimensionError("keep must name at least one subsystem")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise DimensionError(f"keep indices {keep_list} out of range for {n} subsystems")

    # einsum: traced subsystems share one index letter between row and column
    # slots, kept subsystems get distinct letters that survive to the output.
    row = list(string.ascii_lowercase[:n])
    col = [string.ascii_uppercase[i] if i in keep_list else row[i] for i in range(n)]
    out = [row[i] for i in keep_list] + [col[i] for i in keep_list]
    spec = "".join(row) + "".join(col) + "->" + "".join(out)
    t = rho.entries.reshape(dims + dims)
    kept_dim = int(np.prod([dims[i] for i in keep_list]))
    reduced = np.einsum(spec, t).reshape(kept_dim, kept_dim)
    return DensityMatrix(reduced)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random normalized state (Gaussian amplitudes, normalized)."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps).normalize()


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    """Random Hermitian operator with entries of the given scale."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * (m + m.conj().T) / 2.0)
