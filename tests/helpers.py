"""Basis states, the identity and the Paulis sigma_x and sigma_y, random
states and operators, the Gaussian pointer wavefunction, a run's whole
columns, the environment of a child interpreter, a child run and its peak
RSS, for the tests.

Nothing in `tsvf_sim` needs these: the tests build inputs from them, check
the library's readout densities against the pointer wavefunction, read a
run's table, and run the package in fresh interpreters.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tsvf_sim
from tsvf_sim.experiments import BLAS_THREAD_VARS, RENDER_CHUNK
from tsvf_sim.errors import InvariantError
from tsvf_sim.hilbert import HermitianOperator, StateVector


SIGMA_X = HermitianOperator([[0, 1], [1, 0]])
SIGMA_Y = HermitianOperator([[0, -1j], [1j, 0]])


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> of a dim-dimensional space."""
    return StateVector(np.eye(dim)[index])


def identity(dim: int) -> HermitianOperator:
    """Identity operator on a dim-dimensional space."""
    return HermitianOperator(np.eye(dim))


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


def child_env(**blas_threads) -> dict[str, str]:
    """Environment for a child interpreter that imports this tsvf_sim.

    The BLAS thread variables are only those given, not this process's.
    """
    path = [str(Path(tsvf_sim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, path)), **blas_threads)


def run_child(args: list[str], **blas_threads) -> subprocess.CompletedProcess:
    """Run a fresh interpreter, `python *args`, in `child_env(**blas_threads)`,
    and return the completed process with its output as text."""
    return subprocess.run([sys.executable, *args], env=child_env(**blas_threads),
                          capture_output=True, text=True, timeout=60)


def result_columns(result) -> tuple[list, ...]:
    """Every cell of each column of a run's table, top to bottom, gathered
    from the chunks the CSV renderer reads."""
    slices = zip(*result.chunks(RENDER_CHUNK))
    return tuple(list(itertools.chain.from_iterable(column)) for column in slices)


# Runs `tsvf-sim` with its arguments, then prints its own peak RSS in KiB as
# it exits: the VmHWM of its memory since exec. Its ru_maxrss would not do, as
# Linux carries the spawning process's high-water mark into the child's.
_REPORT_PEAK_RSS = (
    "import sys; from tsvf_sim.cli import main; code = main(sys.argv[1:]); "
    "print(open('/proc/self/status').read().partition('VmHWM:')[2].split()[0]); "
    "sys.exit(code)"
)


def child_peak_rss_mib(runs: dict) -> dict:
    """Peak RSS in MiB of one fresh `tsvf-sim` child per argument list in
    `runs`, keyed as `runs`; Linux only. The children run at once, and each
    must exit 0.
    """
    procs = {key: subprocess.Popen([sys.executable, "-c", _REPORT_PEAK_RSS, *argv],
                                   env=child_env(), stdout=subprocess.PIPE, text=True)
             for key, argv in runs.items()}
    peaks = {}
    for key, proc in procs.items():
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, key
        peaks[key] = int(stdout.split()[-1]) / 1024
    return peaks
