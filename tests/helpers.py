"""Random states and operators, and the Gaussian pointer wavefunction, for the tests.

Nothing in `tsvf_sim` needs these: the tests draw random inputs from them and
check the library's readout densities against the pointer wavefunction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tsvf_sim.errors import InvariantError
from tsvf_sim.hilbert import HermitianOperator, StateVector


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random normalized state (Gaussian amplitudes, normalized)."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps).normalize()


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Random Hermitian operator with standard Gaussian entries, symmetrized."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2.0)


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
