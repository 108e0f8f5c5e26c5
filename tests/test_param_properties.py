"""Property test over `--param` values: a run either succeeds cleanly, or fails
with a ConfigError (exit 2), or with NoAcceptedTrials when a valid `weakvalue`
configuration happens to accept no trial (exit 3).

Values come from a fixed vocabulary: cheap values per parameter, among them
each bound of a domain the library shares and its neighbour just outside,
malformed strings, and values every runner must reject before it allocates
anything. Every warning is raised as an error, so a leaked numpy
RuntimeWarning fails the property. Parameters that set the amount of work
(trials, steps, brute_max) are always drawn, so no example runs a costly
default.
"""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from tsvf_sim.cli import render_csv
from tsvf_sim.errors import SIGMA_DOMAIN, ConfigError, NoAcceptedTrials
from tsvf_sim.experiments import (
    EXPERIMENTS,
    MAX_G_OVER_SIGMA,
    MIN_G_OVER_SIGMA,
    resolve_params,
)
from tsvf_sim.twotime import GAMMA1_DOMAIN, OVERLAP_DOMAIN


def _edges(low, high):
    """The bounds of [low, high] and their neighbours just outside, as parameter text."""
    return [repr(v) for v in (low, math.nextafter(low, -math.inf),
                              high, math.nextafter(high, math.inf))]


CHEAP = {
    "alpha2": ["0", "0.36", "1", "1e-17"],
    "trials": ["1", "7", "1000"],
    "g_over_sigma": ["0.01", "1", "10", "1e-100", *_edges(MIN_G_OVER_SIGMA, MAX_G_OVER_SIGMA)],
    "sigma": ["1", "0.5", *_edges(*SIGMA_DOMAIN)],
    "post_angle": ["0", "0.39269908169872414", "0.7853981633974483", "3"],
    "Ns": ["1,10", "100,1000,10000", "1,1000000000", "1,100000000000000000000", "5,5",
           "100000000000000000000,100000000000000000001"],
    "brute_max": ["1", "3", "6"],
    "closed_Ns": ["1", "1000000", "1,2,3"],
    "c": ["0.5", "0.9", "0.999999", "0.999999999999999", *_edges(*OVERLAP_DOMAIN)],
    "n": ["0", "1", "5", "1000000000", "1e99", "1e300"],
    "gamma1": ["0.9", "0.5", *_edges(*GAMMA1_DOMAIN)],
    "gamma2": ["0.5", "0.9", *_edges(*OVERLAP_DOMAIN)],
    "env_sizes": ["8,10,12", "8,1000000000", "6,7", "20,1e9", "8,8",
                  "100000000000000000000,100000000000000000001"],
    "targets": ["1e3,1e6", "1e300", "1", "10,1e-300"],
    "n0": ["1e6", "1e300"],
    "time_constant": ["1", "1e-300", "1e300"],
    "t_max": ["10", "1e300"],
    "steps": ["2", "101", "1000"],
}
MALFORMED = ["", "abc", "1,,2", "0x10", "1.5.2", "--1", "1e", ",", "1" + "0" * 400]
REJECTED = ["inf", "-inf", "nan", "1e400", "-1", "0", "1e300", "-1e300", "1e-300", "100000000"]
ALWAYS_DRAWN = {"trials", "steps", "brute_max"}


def _value(name):
    return st.one_of(
        st.sampled_from(CHEAP[name]), st.sampled_from(MALFORMED), st.sampled_from(REJECTED)
    )


@st.composite
def _runs(draw):
    exp = EXPERIMENTS[draw(st.sampled_from(sorted(EXPERIMENTS)))]
    overrides = {}
    for spec in exp.params:
        if spec.name in ALWAYS_DRAWN or draw(st.booleans()):
            overrides[spec.name] = draw(_value(spec.name))
    return exp, overrides


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_runs())
def test_params_fail_only_with_package_errors(run):
    exp, overrides = run
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = resolve_params(exp, overrides)
            result = exp.runner(params, 0)
            text = render_csv(exp, 0, params, result)
    except Exception as exc:
        assert isinstance(exc, (ConfigError, NoAcceptedTrials)), repr(exc)
        return
    assert "nan" not in text
