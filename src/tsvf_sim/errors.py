"""Exception types shared across the package, for the two ways a call can fail.

Input the package rejects raises ConfigError, a ValueError, or its subclass
InvariantError: a value outside its documented domain, operands of unequal
dimension, a dense oracle asked beyond its bound. A valid run in which
post-selection accepts nothing raises NoAcceptedTrials, a RuntimeError. The
command line maps the classes to exit codes in one place: a ConfigError
exits 2, anything else exits 3, NoAcceptedTrials and a plain ValueError from
a defect included.

The tolerance, the dense-oracle bounds and the single-value domains that gate
InvariantError live here too, so the closed-form modules and the parameter
parser can use them without importing numpy. So do the two validators of
every scalar argument: `require_in` for a real value and `require_count` for a
count. Each raises InvariantError on a non-number too.
"""

import math
import operator

# Tolerance for identities that hold exactly in the algebra (hermiticity,
# normalization); hilbert.ATOL_EIG is the one for eigensolver output, such as
# the Born weights of HermitianOperator.born_branches.
ATOL_EXACT = 1e-12
# Dense brute-force oracles are limited to Hilbert dimension 2^ORACLE_MAX_QUBITS.
# Cost no longer sets it for the two-time oracle: on real record vectors it
# takes about 3 ms and a 0.1 MiB allocation peak at N = 12 (2^14) on a 2-core
# Xeon. It stays 14 so that the oracles accept the same runs as before.
ORACLE_MAX_QUBITS = 14
# Largest spin count for the integer spin oracle. Cost no longer sets it: the
# lane-parallel oracle takes about 6 ms and a 0.9 MiB allocation peak at
# N = 12 on a 2-core Xeon, without numpy. It stays 12 because it is the
# documented upper bound of the `commutator` experiment's `brute_max`, and
# raising it would change which runs the CLI accepts.
SPIN_ORACLE_MAX = 12
# A readout density keeps sigma in SIGMA_DOMAIN and every |mean| at most
# SCALE_MAX * min(sigma, 1), so the squared distances between readings and
# means, and those squares over sigma^2, stay finite floats.
SCALE_MAX = 1e150
# Inclusive domains (low, high) of single values. Each is read both by the
# parameter that sets the value and by the library check that guards it.
SIGMA_DOMAIN = (1.0 / SCALE_MAX, SCALE_MAX)
NON_NEGATIVE = (0.0, math.inf)
# The smallest float above 0: a finite float is at least it exactly when it is above 0.
POSITIVE = (math.ulp(0.0), math.inf)


def fits_oracle(dim: int, copies: int) -> bool:
    """True when the product space dim^copies is within the dense-oracle bound.

    Compares exponents, so a huge copy count never builds dim^copies. For a
    power-of-two dim the comparison is exact; any other dim^copies is at
    least one away from 2^ORACLE_MAX_QUBITS, far beyond the rounding error.
    """
    return dim == 1 or copies <= ORACLE_MAX_QUBITS / math.log2(dim)


def require_in(name: str, value, domain: tuple) -> None:
    """Raise InvariantError unless value is a finite float, or an int that fits one,
    and lies in the inclusive domain."""
    low, high = domain
    try:
        finite = math.isfinite(value)  # NaN is not
    except (OverflowError, TypeError):  # an int too large for a float, or not a number
        finite = False
    if not (finite and low <= value <= high):
        raise InvariantError(f"{name} must be finite and lie in [{low!r}, {high!r}]")


def require_count(name: str, value, low: int, high: float = math.inf) -> int:
    """Return value as a Python int if it is an int in [low, high], else raise InvariantError.

    An int is what operator.index takes, a numpy int too, but not a bool; 2.0 and "4" are not."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or not low <= count <= high:
        most = "" if high == math.inf else f" and at most {high}"
        raise InvariantError(f"{name} must be an int of at least {low}{most}, got {value!r}")
    return count


class ConfigError(ValueError):
    """Input the package rejects: a malformed configuration or an invalid model."""


class InvariantError(ConfigError):
    """An input outside its documented domain: an object that would violate one of
    its defining invariants, operands of unequal dimension, or a dense oracle
    asked beyond its bound."""


class NoAcceptedTrials(RuntimeError):
    """Post-selection accepts nothing: the post-selection state is orthogonal to
    every branch, every trial failed post-selection, or a sampler's acceptance
    is too low for it to give any reading."""
