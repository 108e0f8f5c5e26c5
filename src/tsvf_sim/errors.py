"""Exception types shared across the package.

Every error raised on input the package rejects derives from ConfigError, a
ValueError; every error raised when a valid run cannot produce a result
derives from RuntimeError. The command line maps the classes to exit codes
in one place: a ConfigError exits 2, anything else exits 3, the package's
RuntimeErrors and a plain ValueError from a defect included.

The tolerance and the dense-oracle bounds that gate InvariantError and
TooLargeForOracle live here too, so the closed-form modules, and the limit
checks of runners that do use numpy, can use them without importing numpy.
"""

import math

# Tolerance for identities that hold exactly in the algebra (hermiticity,
# normalization); hilbert.ATOL_EIG is the one for eigensolver output, such as
# the Born weights of HermitianOperator.born_branches.
ATOL_EXACT = 1e-12
# Dense brute-force oracles are limited to Hilbert dimension 2^ORACLE_MAX_QUBITS.
ORACLE_MAX_QUBITS = 14
# Largest spin count for the integer spin oracle. Cost no longer sets it: the
# lane-parallel oracle takes about 6 ms and a 0.9 MiB allocation peak at
# N = 12 on a 2-core Xeon, without numpy. It stays 12 because it is the
# documented upper bound of the `commutator` experiment's `brute_max`, and
# raising it would change which runs the CLI accepts.
SPIN_ORACLE_MAX = 12


def fits_oracle(dim: int, copies: int) -> bool:
    """True when the product space dim^copies is within the dense-oracle bound.

    Compares exponents, so a huge copy count never builds dim^copies. For a
    power-of-two dim the comparison is exact; any other dim^copies is at
    least one away from 2^ORACLE_MAX_QUBITS, far beyond the rounding error.
    """
    return dim == 1 or copies <= ORACLE_MAX_QUBITS / math.log2(dim)


class ConfigError(ValueError):
    """Input the package rejects: a malformed configuration or an invalid model."""


class DimensionError(ConfigError):
    """Operands live in Hilbert spaces of incompatible dimension."""


class InvariantError(ConfigError):
    """A constructed object violates one of its defining invariants."""


class PostSelectionImpossible(RuntimeError):
    """The post-selection state is orthogonal to every branch of the coupled state."""


class NearOrthogonalPrePost(ConfigError):
    """Pre- and post-selected states overlap below the configured threshold."""


class NoAcceptedTrials(RuntimeError):
    """Every Monte Carlo trial failed post-selection; no estimate exists."""


class TooLargeForOracle(ConfigError):
    """The requested brute-force computation exceeds the dense-space bound."""


class NoConsistentHistory(ConfigError):
    """The final boundary condition is orthogonal to every forward branch."""


class OrthogonalCollapseForbidden(ConfigError):
    """A collapse state orthogonal to the recorded branch would erase the record."""
