"""Exception types shared across the package.

Everything raised on bad input derives from ValueError, everything raised when
a run cannot produce a result derives from RuntimeError, so callers can catch
broadly without importing each class. The tolerance and the dense-oracle
bounds that gate InvariantError and TooLargeForOracle live here too, so the
closed-form modules, and the limit checks of runners that do use numpy, can
use them without importing numpy.
"""

import math

# Tolerance for identities that hold exactly in the algebra (hermiticity,
# normalization, trace); hilbert.ATOL_EIG is the one for eigensolver output.
ATOL_EXACT = 1e-12
# Dense brute-force oracles are limited to Hilbert dimension 2^ORACLE_MAX_QUBITS.
ORACLE_MAX_QUBITS = 14
# Largest spin count for the spin oracle, which does 8^N work: about 0.8 s and
# an 8 MiB allocation peak at N = 12 on a 2-core Xeon.
SPIN_ORACLE_MAX = 12


def fits_oracle(dim: int, copies: int) -> bool:
    """True when the product space dim^copies is within the dense-oracle bound.

    Compares exponents, so a huge copy count never builds dim^copies. For a
    power-of-two dim the comparison is exact; any other dim^copies is at
    least one away from 2^ORACLE_MAX_QUBITS, far beyond the rounding error.
    """
    return dim == 1 or copies <= ORACLE_MAX_QUBITS / math.log2(dim)


class DimensionError(ValueError):
    """Operands live in Hilbert spaces of incompatible dimension."""


class InvariantError(ValueError):
    """A constructed object violates one of its defining invariants."""


class PostSelectionImpossible(RuntimeError):
    """The post-selection state is orthogonal to every branch of the coupled state."""


class NotInStrongRegime(ValueError):
    """Pointer branch separations are too small for unambiguous readout classification."""


class NearOrthogonalPrePost(ValueError):
    """Pre- and post-selected states overlap below the configured threshold."""


class NoAcceptedTrials(RuntimeError):
    """Every Monte Carlo trial failed post-selection; no estimate exists."""


class TooLargeForOracle(ValueError):
    """The requested brute-force computation exceeds the dense-space bound."""


class NoConsistentHistory(ValueError):
    """The final boundary condition is orthogonal to every forward branch."""


class OrthogonalCollapseForbidden(ValueError):
    """A collapse state orthogonal to the recorded branch would erase the record."""


class ConfigError(ValueError):
    """Malformed experiment configuration (unknown key, bad value, bad seed)."""
