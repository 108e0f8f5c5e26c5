"""Property test over the public constructors and functions: a call either
returns finite output (or the +-inf its docstring names), or raises a
`tsvf_sim.errors` type.

Arguments come from a fixed vocabulary of ordinary, edge and non-finite
floats: zeros, +-1e+-300, subnormals, +-inf, nan, and each bound of the
pointer-sigma and record-overlap domains with its neighbour just outside. Every warning is raised as an error, so a leaked numpy
RuntimeWarning fails the property, and every `ReadoutDensity.sample` call
runs under a wall-clock alarm, so a sampler that never returns fails instead
of stalling the suite.
"""

import math
import signal
import sys
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvf_sim import errors
from tsvf_sim.errors import SCALE_MAX, SIGMA_DOMAIN
from tsvf_sim.hilbert import SIGMA_Z, HermitianOperator, StateVector
from tsvf_sim.measurement import TwoState, weak_value
from tsvf_sim.pointer import ReadoutDensity, readout_density
from tsvf_sim.spins import average_spin_commutator
from tsvf_sim.twotime import (
    GAMMA1_DOMAIN,
    OVERLAP_DOMAIN,
    RobustnessModel,
    classical_threshold,
    core_decay,
    log_robustness_ratio,
    robustness_ratio,
)

FLOATS = [0.0, -0.0, 0.5, 1.0, -1.0, 0.9, -SCALE_MAX, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
          -5e-324, 1e-310, math.inf, -math.inf, math.nan]
FLOATS += [edge for low, high in (SIGMA_DOMAIN, OVERLAP_DOMAIN, GAMMA1_DOMAIN)
           for edge in (low, math.nextafter(low, -math.inf), high, math.nextafter(high, math.inf))
           if edge not in FLOATS]
COUNTS = [0, 1, 2, 8, 10 ** 6, 10 ** 300, 10 ** 306, 10 ** 306 + 10 ** 308, 10 ** 400,
          True, 2.5, np.int64(8)]
PACKAGE_ERRORS = tuple(cls for cls in vars(errors).values()
                       if isinstance(cls, type) and issubclass(cls, Exception)
                       and cls.__module__ == errors.__name__)
# Seconds one small `sample` call may take before it counts as a hang.
SAMPLE_ALARM_S = 1.0

floats = st.sampled_from(FLOATS)
counts = st.sampled_from(COUNTS)
sizes = st.integers(1, 3)


def _floats(k):
    return st.lists(floats, min_size=k, max_size=k)


def _amps(dim):
    return st.lists(floats | st.builds(complex, floats, floats), min_size=dim, max_size=dim)


def _entries(dim):
    """The diagonal and the upper triangle (real or imaginary) of a Hermitian matrix."""
    upper = st.builds(lambda x, imaginary: complex(0.0, x) if imaginary else x,
                      floats, st.booleans())
    pairs = dim * (dim - 1) // 2
    return st.tuples(_floats(dim), st.lists(upper, min_size=pairs, max_size=pairs))


def _operator(entries):
    diagonal, upper = entries
    m = np.diag(np.array(diagonal, dtype=complex))
    rows, cols = np.triu_indices(len(diagonal), 1)
    m[rows, cols] = upper
    m[cols, rows] = np.conj(upper)
    return HermitianOperator(m)


def _state(amps):
    """The drawn amplitudes, normalized by the library when it can."""
    return StateVector(amps).normalize()


class SamplerHang(Exception):
    pass


def _on_alarm(signum, frame):
    raise SamplerHang(f"sample ran longer than {SAMPLE_ALARM_S} s")


def _sample(density, size):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_ALARM_S)
    try:
        return density.sample(np.random.default_rng(0), size)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _density_outputs(density, q, size):
    # pdf and mean are +-inf only where the value exceeds the float range.
    assert not math.isnan(density.pdf(q)) and not math.isnan(density.mean())
    return [_sample(density, size)]


def _state_calls(amps):
    psi = StateVector(amps)
    outputs = [psi.norm(), psi.normalize().amps]
    psi.require_normalized("state")
    return outputs


def _operator_calls(entries, amps):
    op = _operator(entries)
    psi = _state(amps)
    return [*op.branches[0], *op.branches[1], *op.born_branches(psi), op.expectation(psi)]


def _density_calls(means, weights, sigma, q, size):
    return _density_outputs(ReadoutDensity(means=means, weights=weights, sigma=sigma), q, size)


def _readout_density_calls(entries, amps, post, g, sigma, q, size):
    op = SIGMA_Z if entries is None else _operator(entries)
    density = readout_density(_state(amps), op, g, sigma, None if post is None else _state(post))
    return _density_outputs(density, q, size)


def _weak_value_calls(entries, forward, backward):
    ts = TwoState(_state(forward), _state(backward))
    return [ts.overlap, weak_value(ts, _operator(entries))]


def _robustness_calls(alpha, beta, env_size, overlap, n_collapsed, gamma1, gamma2):
    model = RobustnessModel(alpha=alpha, beta=beta, env_size=env_size, overlap=overlap,
                            n_collapsed=n_collapsed, gamma1=gamma1, gamma2=gamma2)
    log_ratio, ratio = log_robustness_ratio(model), robustness_ratio(model)
    # Documented infinities: a log ratio beyond the float range, and a ratio
    # that overflows to +inf or underflows to 0.0.
    assert not math.isnan(log_ratio)
    try:
        expected = math.exp(log_ratio)
    except OverflowError:
        expected = math.inf
    assert ratio == expected
    return []


def _decay_calls(n0, time_constant, t):
    return [core_decay(n0, time_constant, t)]


def _threshold_calls(n_collapsed, overlap, gamma1, gamma2, ratio_target):
    assert classical_threshold(n_collapsed, overlap, gamma1, gamma2, ratio_target) > n_collapsed
    return []


# Each call kind: the function that makes the library calls, and its arguments.
CALLS = {
    "state": (_state_calls, sizes.flatmap(lambda dim: st.tuples(_amps(dim)))),
    "operator": (_operator_calls, sizes.flatmap(
        lambda dim: st.tuples(_entries(dim), _amps(dim)))),
    "density": (_density_calls, sizes.flatmap(
        lambda k: st.tuples(_floats(k), _floats(k), floats, floats, sizes))),
    "readout_density": (_readout_density_calls, sizes.flatmap(lambda dim: st.tuples(
        st.none() | _entries(dim) if dim == 2 else _entries(dim), _amps(dim),
        st.none() | _amps(dim), floats, floats, floats, sizes))),
    "weak_value": (_weak_value_calls, sizes.flatmap(
        lambda dim: st.tuples(_entries(dim), _amps(dim), _amps(dim)))),
    "robustness": (_robustness_calls, st.tuples(
        floats, floats, counts, floats, counts, floats, floats)),
    "decay": (_decay_calls, st.tuples(floats, floats, floats)),
    "threshold": (_threshold_calls, st.tuples(counts, floats, floats, floats, floats)),
}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), CALLS[name][1])))
# A reading so far out that its squared distance overflows.
@example(("density", ([0.0], [1.0], 1.0, 1e200, 1)))
# sigma times the weight sum underflows to 0.
@example(("density", ([0.0], [1e-300], SIGMA_DOMAIN[0], 0.0, 1)))
# Acceptance 2.2e-16, below pointer.MIN_ACCEPTANCE: rejection would need
# about 4.5e15 proposals per reading.
@example(("density", ([0.0, 0.0], [1.0, -1.0 + 2 ** -52], 1.0, 0.0, 1)))
# Acceptance 1e-310, at which the block size 1.1 n / acceptance would overflow.
@example(("density", ([0.0, 0.0, 0.0], [1.0, -1.0, 1e-310], 1.0, 0.0, 1)))
# Finite weights whose sum overflows to inf.
@example(("density", ([0.0, 0.0], [1e308, 1e308], 1.0, 0.0, 1)))
# Ints too large for a float, in a domain with an infinite end and in one without.
@example(("decay", (10 ** 400, 1.0, 1.0)))
@example(("robustness", (1.0, 0.0, 8, 0.5, 1, 10 ** 400, 0.5)))
# The record term overflows to +inf and the collapse term to -inf.
@example(("robustness", (1.0, 0.0, 10 ** 306 + 10 ** 308, 0.1, 10 ** 306, 1e-300, 0.9)))
# Only the gamma1 collapse term overflows, to -inf; the log ratio is finite.
@example(("robustness", (1.0, 0.0, 10 ** 308 + 5 * 10 ** 307, math.exp(-1), 10 ** 308,
                         math.exp(-1.9), math.exp(-1.79))))
# Finite operator entries above errors.SCALE_MAX: the gap between two
# eigenvalues overflows, eigenvalues 0 and 2e308 merge into one inf, and a
# weak value overflows to inf.
@example(("operator", (([1e308, -1e308], [0.0]), [1.0, 1.0])))
@example(("operator", (([1e308, 1e308], [1e308]), [1.0, 1.0])))
@example(("weak_value", (([0.0, 0.0], [1e300]), [1.0, 0.0], [1e-11, 1.0])))
def test_library_calls_return_finite_output_or_raise_package_errors(call):
    name, args = call
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs = CALLS[name][0](*args)
    except PACKAGE_ERRORS:
        return
    assert all(np.isfinite(np.asarray(out)).all() for out in outputs), outputs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, int(sys.float_info.max)))
# From 2^1023 on, 2.0 * N overflows a float; 1/(2N) is then a subnormal.
@example(2 ** 1023)
@example(int(1e308))
@example(int(sys.float_info.max))
def test_spin_commutator_scale_is_the_exact_one_over_two_n_rounded_once(n):
    assert average_spin_commutator(n) == float(Fraction(1, 2 * n))
