"""Experiment registry and runners behind the command-line interface.

Each experiment resolves its parameters strictly (unknown keys are rejected),
runs deterministically from a single master seed, and produces a CSV whose
leading '#' lines embed the resolved configuration and a summary record, so
every output file is self-describing. Identical configuration and seed yield
byte-identical files.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Callable

from .errors import (
    NON_NEGATIVE,
    POSITIVE,
    SIGMA_DOMAIN,
    SPIN_ORACLE_MAX,
    ConfigError,
    InvariantError,
    fits_oracle,
)
from .twotime import (
    COLLAPSED_DOMAIN,
    GAMMA1_DOMAIN,
    OVERLAP_DOMAIN,
    RobustnessModel,
    _decay_curve,
    classical_threshold,
    core_decay,
    ensemble_average,
    log_robustness_ratio,
    robustness_ratio,
)

# Names that perfbench/trace_child.py reads and rebinds on this module. They
# are resolved through the package's export table on first use (PEP 562
# __getattr__ below), so runs that never call them never import their module,
# and runners call them through `_module` so that they find a rebound wrapper.
# The measurement and ensemble names are numpy-backed; the pure-Python spins
# and branches names stay here only for the tracer, and strong_measure and
# average_operator_residual have no caller here. This set goes with the
# rebinding, when the in-program stage timers of ROADMAP item 1 replace it.
_TRACED = frozenset({
    "strong_measure", "weak_estimate", "average_operator_residual",
    "average_spin_commutator", "brute_force_spin_commutator", "brute_force_ratio",
})
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


# OpenBLAS takes its thread count from the first of these that is set, read
# once when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Rows a run may ask for. born and decay make and write their rows a chunk
# at a time, so their memory does not grow with rows; weakvalue holds one
# float per accepted trial. So the cap bounds time, most of it formatting
# floats with repr: at 10^7 rows a born run takes about 2.5 s (16 MiB peak
# RSS), a decay run about 13 s (16 MiB), and a weakvalue run that accepts
# every trial about 8 s (0.19 GiB), on a 2-core Xeon with Python 3.11.7.
MAX_ROWS = 10 ** 7
# Rows of a result made, formatted and written at a time: the cells and text
# of one chunk are all of the table a decay run holds, and a born run holds
# one BORN_BLOCK of outcomes besides, so their memory stays fixed whatever
# the row count.
RENDER_CHUNK = 1 << 11
# Bytes of random.Random.randbytes that born draws at a time, one per trial:
# whole 32-bit words, so a block's bytes are the same however a run is split,
# and a whole number of render chunks.
BORN_BLOCK = 1 << 14
# Deep in the strong regime: branches 2000 sigma apart, and a reading g*a + sigma*z
# still resolves sigma-scale detail to about 1e-13 sigma in a double.
MAX_G_OVER_SIGMA = 1e3
# mean_over_g and stderr_over_g scale as 1 / (g_over_sigma sqrt(accepted)), so a
# smaller ratio can overflow them to inf while many trials pass post-selection.
MIN_G_OVER_SIGMA = 1e-300
# Record sizes for which the slope fit's centred squares stay below about
# 1e200, far inside the float range.
MAX_ENV_SIZE = 1e100


@dataclass(frozen=True)
class ParamSpec:
    """One parameter: its kind, its default and the inclusive range [low, high]
    that the parser checks on its value, or on each entry of a list."""

    name: str
    kind: str  # int | float | int_list | float_list
    default: object
    help: str
    low: float = -math.inf
    high: float = math.inf

    @property
    def bounds(self) -> str:
        return f"[{self.low!r}, {self.high!r}]"


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    params: tuple[ParamSpec, ...]
    runner: Callable[[dict, int], "ExperimentResult"]  # (params, seed)


@dataclass
class ExperimentResult:
    """One run's table under `header`, and its summary record.

    `chunks(size)` yields the table top to bottom, at most `size` rows at a
    time, as a tuple with one slice per column. Each call starts again at
    the first row, so a large table is made a chunk at a time and never held
    whole. Large slices are typed: `array('b')` for born's outcomes, a numpy
    float64 array for weakvalue's readings, `array('d')` for the decay table,
    which is built without numpy, and ranges for row indices. Small mixed
    columns are lists, which keep Python ints of any size and None where
    there is no number. The CSV renderer formats each slice as a whole, so
    no per-row tuple exists, and writes a None cell or summary value empty.
    """

    header: tuple[str, ...]
    chunks: Callable[[int], Iterator[tuple[Sequence, ...]]]
    summary: dict

    @classmethod
    def from_columns(cls, header: tuple[str, ...], columns: tuple[Sequence, ...],
                     summary: dict) -> "ExperimentResult":
        """A table held whole: `columns[i]` holds every cell under `header[i]`."""
        if not header or len(columns) != len(header):
            raise InvariantError(
                f"a result needs one column per header name: {len(header)} names, "
                f"{len(columns)} columns"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise InvariantError(f"result columns differ in length: {sorted(lengths)}")
        length = lengths.pop()

        def chunks(size: int):
            for start in range(0, length, size):
                yield tuple(column[start:start + size] for column in columns)

        return cls(header, chunks, summary)


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _parse_scalar(spec: ParamSpec, raw: str):
    """Parse one int or float of `spec` (or one list entry) and check its range.

    Non-finite values (inf, nan, 1e400) are rejected. An integer written out
    in digits is parsed, and compared with the bounds, exactly, but it too
    must fit in a float.
    """
    kind, name = spec.kind.removesuffix("_list"), spec.name
    try:
        value = float(raw)
        if kind == "int" and math.isfinite(value) and value != int(value):
            raise ValueError(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"parameter {name!r}: cannot parse {raw!r} as {kind}") from None
    if not math.isfinite(value):
        raise ConfigError(f"parameter {name!r}: {raw!r} is not a finite number")
    if kind == "int":
        value = int(raw) if raw.strip().lstrip("+-").isdigit() else int(value)
    _require(spec.low <= value <= spec.high, f"parameter {name!r} must lie in {spec.bounds}")
    return value


def parse_param_value(spec: ParamSpec, raw: str):
    """Parse one command-line/config value according to the parameter's kind."""
    if spec.kind in ("int", "float"):
        return _parse_scalar(spec, raw)
    parts = [p for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"parameter {spec.name!r}: empty list")
    return [_parse_scalar(spec, p.strip()) for p in parts]


def resolve_params(experiment: Experiment, overrides: dict[str, str]) -> dict:
    """Apply string overrides to the experiment's defaults, strictly."""
    known = {p.name: p for p in experiment.params}
    for key in overrides:
        if key not in known:
            raise ConfigError(
                f"unknown parameter {key!r} for experiment {experiment.name!r} "
                f"(known: {', '.join(known) or 'none'})"
            )
    resolved = {}
    for spec in experiment.params:
        if spec.name in overrides:
            resolved[spec.name] = parse_param_value(spec, overrides[spec.name])
        else:
            resolved[spec.name] = spec.default
    return resolved


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs; xs need two distinct values.

    Deviations are taken from the rounded means and corrected by their own
    mean (the corrected two-pass form), and every sum is exactly rounded
    (math.fsum), so the slope stays within a few ulp of the exact one even
    when the xs cluster within a few ulp of each other.
    """
    k = len(xs)
    x0, y0 = math.fsum(xs) / k, math.fsum(ys) / k
    dx, dy = [x - x0 for x in xs], [y - y0 for y in ys]
    sx, sy = math.fsum(dx), math.fsum(dy)
    sxy = math.fsum([*(u * v for u, v in zip(dx, dy)), -sx * sy / k])
    sxx = math.fsum([*(u * u for u in dx), -sx * sx / k])
    return sxy / sxx


# ---------------------------------------------------------------- experiments


def _run_born(params: dict, seed: int) -> ExperimentResult:
    a2, trials = params["alpha2"], params["trials"]
    import random

    # Trial t is +1 iff its uniform (byte_t + r_t) / 256 is below the Born
    # weight a2 = |<0|psi>|^2. byte_t alone decides every trial but a tie:
    # byte_t = floor(256 a2) where 256 a2 is not an integer, one time in 256.
    # Only a tie draws r_t = rng.random(). 256 a2 and its fraction above the
    # tie are exact, so P(+1) is a2 to within 2^-61. The table maps each byte
    # to 1, to -1 (255 as a signed byte) or to 0 for a tie.
    tie = math.floor(256.0 * a2)
    fraction = 256.0 * a2 - tie
    table = bytes(1 if byte < tie else 0 if byte == tie and fraction else 255
                  for byte in range(256))

    # Every call draws the outcomes again from the seed, one BORN_BLOCK of
    # bytes at a time, so the draws do not depend on the rows asked for.
    def blocks():
        rng = random.Random(seed)
        for start in range(0, trials, BORN_BLOCK):
            block = bytearray(rng.randbytes(BORN_BLOCK)[:trials - start].translate(table))
            at = block.find(0)
            while at >= 0:
                block[at] = 1 if rng.random() < fraction else 255
                at = block.find(0, at + 1)
            yield start, block

    def chunks(size: int):
        for start, block in blocks():
            outcomes = array("b", block)
            for offset in range(0, len(outcomes), size):
                rows = outcomes[offset:offset + size]
                yield range(start + offset, start + offset + len(rows)), rows

    # A counting pass for the summary, which the CSV writes before any row.
    plus = sum(block.count(1) for _, block in blocks())
    return ExperimentResult(
        header=("trial", "outcome"),
        chunks=chunks,
        summary={
            "frequency_plus": plus / trials,
            "expected": a2,
            "binomial_stderr": math.sqrt(max(a2 * (1.0 - a2), 0.0) / trials),
        },
    )


def _run_weakvalue(params: dict, seed: int) -> ExperimentResult:
    ratio, sigma, trials = params["g_over_sigma"], params["sigma"], params["trials"]
    angle = params["post_angle"]
    g = ratio * sigma
    _require(g >= sys.float_info.min,
             f"parameters 'g_over_sigma' * 'sigma' must be at least {sys.float_info.min:g}")
    # Load numpy on one BLAS thread unless it is loaded or the user set a count: a
    # second thread saves no time, and at defaults a fresh run took 0.17 s of CPU
    # on one and 0.23 s on two (medians of 8, 2-core Xeon, Python 3.11.7).
    one_thread = "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS)
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]

    from .hilbert import SIGMA_Z, StateVector
    from .measurement import TwoState, weak_value

    forward = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    backward = StateVector(np.array([math.cos(angle), -math.sin(angle)], dtype=complex))
    ts = TwoState(forward, backward)
    value = weak_value(ts, SIGMA_Z)
    est = _module.weak_estimate(ts, SIGMA_Z, g, sigma, trials, np.random.default_rng(seed))
    return ExperimentResult.from_columns(
        header=("index", "reading"),
        columns=(range(est.samples.size), est.samples),
        summary={
            "weak_value_re": value.real,
            "weak_value_im": value.imag,
            "mean_over_g": est.mean / g,
            "stderr_over_g": est.stderr / g,
            "acceptance_rate": est.acceptance_rate,
            "accepted": est.accepted,
        },
    )


def _run_convergence(params: dict, seed: int) -> ExperimentResult:
    sizes = params["Ns"]
    logs_n = [math.log10(float(n)) for n in sizes]
    _require(len(set(logs_n)) >= 2,
             "parameter 'Ns' needs two sizes whose float log10 differ to fit a slope")
    # sigma_z on |+> = (|0> + |1>)/sqrt(2): abar = 0 and delta = 1 exactly.
    abar, delta = 0.0, 1.0
    averages = [ensemble_average(((n, abar, delta),)) for n in sizes]
    residuals = [residual for _, residual in averages]
    slope = _slope(logs_n, [math.log10(r) for r in residuals])
    return ExperimentResult.from_columns(
        header=("N", "residual"),
        columns=(list(sizes), residuals),
        summary={"slope": slope, "expected_slope": -0.5, "abar": averages[-1][0]},
    )


def _run_commutator(params: dict, seed: int) -> ExperimentResult:
    brute_max, closed_ns = params["brute_max"], params["closed_Ns"]
    brute = [_module.brute_force_spin_commutator(n) for n in range(1, brute_max + 1)]
    errors = [err for _, err in brute]
    return ExperimentResult.from_columns(
        header=("spins", "method", "scale", "identity_error"),
        columns=(
            [*range(1, brute_max + 1), *closed_ns],
            ["brute"] * brute_max + ["closed"] * len(closed_ns),
            [scale for scale, _ in brute]
            + [_module.average_spin_commutator(n) for n in closed_ns],
            errors + [None] * len(closed_ns),
        ),
        summary={"max_identity_error": max(errors), "brute_max": brute_max},
    )


def _model_from(params: dict, env_size: int) -> RobustnessModel:
    amp = 1.0 / math.sqrt(2.0)
    return RobustnessModel(
        alpha=amp,
        beta=amp,
        env_size=env_size,
        overlap=params["c"],
        n_collapsed=params["n"],
        gamma1=params["gamma1"],
        gamma2=params["gamma2"],
    )


def _run_robustness(params: dict, seed: int) -> ExperimentResult:
    sizes = params["env_sizes"]
    xs = [float(n) for n in sizes]
    _require(len(set(xs)) >= 2, "parameter 'env_sizes' needs two entries that differ as floats")
    models = [_model_from(params, s) for s in sizes]
    logs = [log_robustness_ratio(model) for model in models]
    ratios = [robustness_ratio(model) for model in models]
    # The oracle gives no number (None) where a projected weight underflows.
    oracles = [
        _module.brute_force_ratio(model)
        if model.n_collapsed >= 1 and fits_oracle(2, model.env_size + 2) else None
        for model in models
    ]
    fitted = _slope(xs, logs) if all(map(math.isfinite, logs)) else None
    return ExperimentResult.from_columns(
        header=("env_size", "n_collapsed", "log_ratio", "ratio", "brute_ratio"),
        columns=(list(sizes), [params["n"]] * len(sizes), logs, ratios, oracles),
        summary={
            "expected_log_slope": -2.0 * math.log(params["c"]) if params["c"] > 0 else None,
            "fitted_log_slope": fitted,
        },
    )


def _run_threshold(params: dict, seed: int) -> ExperimentResult:
    targets = params["targets"]
    needed, at, below = [], [], []
    for target in targets:
        size = classical_threshold(
            params["n"], params["c"], params["gamma1"], params["gamma2"], target
        )
        needed.append(size)
        at.append(robustness_ratio(_model_from(params, size)))
        below.append(
            robustness_ratio(_model_from(params, size - 1)) if size - 1 > params["n"] else None
        )
    return ExperimentResult.from_columns(
        header=("target", "env_size_needed", "ratio_at_threshold", "ratio_below"),
        columns=(list(targets), needed, at, below),
        summary={"targets": targets, "env_sizes_needed": needed},
    )


def _run_decay(params: dict, seed: int) -> ExperimentResult:
    n0, tau = params["n0"], params["time_constant"]
    t_max, steps = params["t_max"], params["steps"]
    # The points of np.linspace(0.0, t_max, steps) bit for bit: i * step, or
    # i / (steps - 1) * t_max when the step underflows to 0, plus the start
    # 0.0 (which turns -0.0 into 0.0); the last point is t_max itself.
    step = t_max / (steps - 1)

    def chunks(size: int):
        for start in range(0, steps, size):
            indices = range(start, min(start + size, steps - 1))
            if step:
                times = array("d", [i * step for i in indices])
            else:
                times = array("d", [i / (steps - 1) * t_max + 0.0 for i in indices])
            if start + size >= steps:
                times.append(t_max)
            # core_decay's curve; its arguments were checked once, while parsing.
            yield times, _decay_curve(n0, tau, times)

    return ExperimentResult(
        header=("t", "remaining"),
        chunks=chunks,
        summary={"n0": n0, "time_constant": tau,
                 "final_remaining": _decay_curve(n0, tau, (t_max,))[0]},
    )


def _record_params(n_default: int) -> tuple[ParamSpec, ...]:
    """The record model's c, n, gamma1 and gamma2, in the domains RobustnessModel checks."""
    return (
        ParamSpec("c", "float", 0.9, "per-qubit record overlap", *OVERLAP_DOMAIN),
        ParamSpec("n", "int", n_default, "collapsed qubit count", *COLLAPSED_DOMAIN),
        ParamSpec("gamma1", "float", 0.9, "collapse overlap for the right branch", *GAMMA1_DOMAIN),
        ParamSpec("gamma2", "float", 0.9, "collapse overlap for the wrong branch",
                  *OVERLAP_DOMAIN),
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            name="born",
            description="Projective measurement statistics of sqrt(a2)|0> + sqrt(1-a2)|1>",
            params=(
                ParamSpec("alpha2", "float", 0.36, "weight |<0|psi>|^2 of the +1 outcome",
                          0.0, 1.0),
                ParamSpec("trials", "int", 100000, "number of projective trials", 1, MAX_ROWS),
            ),
            runner=_run_born,
        ),
        Experiment(
            name="weakvalue",
            description="Weakly coupled, post-selected pointer readings and their mean shift",
            params=(
                ParamSpec("g_over_sigma", "float", 0.01, "coupling strength over pointer spread",
                          MIN_G_OVER_SIGMA, MAX_G_OVER_SIGMA),
                ParamSpec("sigma", "float", 1.0, "pointer spread", *SIGMA_DOMAIN),
                ParamSpec("trials", "int", 200000, "Monte Carlo trials before post-selection",
                          1, MAX_ROWS),
                ParamSpec("post_angle", "float", math.pi / 8.0,
                          "backward state cos(a)|0> - sin(a)|1>"),
            ),
            runner=_run_weakvalue,
        ),
        Experiment(
            name="convergence",
            description="1/sqrt(N) shrinkage of the ensemble-average operator residual",
            params=(
                ParamSpec("Ns", "int_list", [100, 1000, 10000, 100000], "ensemble sizes", 1),
            ),
            runner=_run_convergence,
        ),
        Experiment(
            name="commutator",
            description="Averaged-spin commutator identity, brute-force checks plus closed form",
            params=(
                ParamSpec("brute_max", "int", 10, "largest spin count for the brute-force check",
                          1, SPIN_ORACLE_MAX),
                ParamSpec("closed_Ns", "int_list", [1000000], "closed-form sizes to tabulate", 1),
            ),
            runner=_run_commutator,
        ),
        Experiment(
            name="robustness",
            description="Backward-reconstruction robustness ratio versus record size",
            params=(
                *_record_params(n_default=5),
                ParamSpec("env_sizes", "int_list", [8, 10, 12, 16, 20], "record sizes N",
                          1, MAX_ENV_SIZE),
            ),
            runner=_run_robustness,
        ),
        Experiment(
            name="threshold",
            description="Record size needed for a classically robust reading",
            params=(
                *_record_params(n_default=0),
                ParamSpec("targets", "float_list", [1e3, 1e6, 1e9], "ratio targets", *POSITIVE),
            ),
            runner=_run_threshold,
        ),
        Experiment(
            name="decay",
            description="Exponential decay of the intact record core",
            params=(
                ParamSpec("n0", "float", 1e6, "initial record size", *NON_NEGATIVE),
                ParamSpec("time_constant", "float", 1.0, "e-folding time T", *POSITIVE),
                ParamSpec("t_max", "float", 10.0, "last sampled time", *NON_NEGATIVE),
                ParamSpec("steps", "int", 101, "number of samples in [0, t_max]", 2, MAX_ROWS),
            ),
            runner=_run_decay,
        ),
    )
}
