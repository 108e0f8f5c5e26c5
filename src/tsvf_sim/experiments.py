"""Experiment registry and runners behind the command-line interface.

Each experiment resolves its parameters strictly (unknown keys are rejected),
runs deterministically from a single master seed, and produces a CSV whose
leading '#' lines embed the resolved configuration and a summary record, so
every output file is self-describing. Identical configuration and seed yield
byte-identical files.
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    SPIN_ORACLE_MAX,
    ConfigError,
    InvariantError,
    OrthogonalCollapseForbidden,
    fits_oracle,
)
# core_decay has no caller here: perfbench/trace_child.py reads and rebinds it
# until ROADMAP item 1 removes that rebinding.
from .twotime import (
    RobustnessModel,
    classical_threshold,
    core_decay,
    ensemble_average,
    log_robustness_ratio,
    robustness_ratio,
)

# Names that perfbench/trace_child.py reads and rebinds on this module. They
# are imported on first use (PEP 562 __getattr__ below), so runs that never
# call them never import their module, and runners call them through
# `_module` so that they find a rebound wrapper. All but brute_force_ratio are
# numpy-backed; that pure-Python oracle stays here only for the tracer.
# strong_measure and average_operator_residual have no caller here. This table
# goes with the rebinding, when the in-program stage timers of ROADMAP item 1
# replace it.
_TRACED = {
    "strong_measure": "measurement",
    "weak_estimate": "measurement",
    "average_operator_residual": "ensemble",
    "average_spin_commutator": "ensemble",
    "brute_force_spin_commutator": "ensemble",
    "brute_force_ratio": "branches",
}
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)
    globals()[name] = value
    return value


# A run holds its columns and its whole CSV text in memory until the file is
# written; at 10^7 rows it peaks at about 0.45 GiB RSS (born), 0.75 GiB
# (weakvalue, every trial accepted) and 0.9 GiB (decay).
MAX_ROWS = 10 ** 7
# Deep in the strong regime: branches 2000 sigma apart, and a reading g*a + sigma*z
# still resolves sigma-scale detail to about 1e-13 sigma in a double.
MAX_G_OVER_SIGMA = 1e3
# Pointer spreads whose squares and ratios stay far inside the float range.
MIN_SIGMA, MAX_SIGMA = 1e-100, 1e100
# Record sizes for which the slope fit's centred squares stay below about
# 1e200, far inside the float range. The int of the float 1e100, so that the
# documented limit "1e100" parses to a size the check accepts.
MAX_ENV_SIZE = int(1e100)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # int | float | int_list | float_list
    default: object
    help: str


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    params: tuple[ParamSpec, ...]
    runner: Callable[[dict, int], "ExperimentResult"]  # (params, seed)


@dataclass
class ExperimentResult:
    """One run's table, stored by column, and its summary record.

    `columns[i]` holds every cell under `header[i]`, top to bottom. Large
    columns are typed: numpy int64 or float64 arrays for sampled columns, and
    `array('d')` for the decay table, which is built without numpy. Small
    mixed columns are lists, which keep Python ints of any size and ""
    blanks. The CSV renderer formats each column as a whole, so no per-row
    tuple exists.
    """

    header: tuple[str, ...]
    columns: tuple[Sequence, ...]
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.header or len(self.columns) != len(self.header):
            raise InvariantError(
                f"a result needs one column per header name: {len(self.header)} names, "
                f"{len(self.columns)} columns"
            )
        lengths = {len(column) for column in self.columns}
        if len(lengths) != 1:
            raise InvariantError(f"result columns differ in length: {sorted(lengths)}")

    # Only perfbench/trace_child.py reads this, as len(result.rows) for its row
    # count; it goes when the in-program report of ROADMAP item 1 replaces it.
    @property
    def rows(self) -> range:
        return range(len(self.columns[0]))


def _parse_scalar(kind: str, name: str, raw: str):
    """Parse one int or float; non-finite values (inf, nan, 1e400) are rejected.

    An integer written out in digits is parsed exactly, but it too must fit
    in a float.
    """
    try:
        value = float(raw)
        if kind == "int" and math.isfinite(value) and value != int(value):
            raise ValueError(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"parameter {name!r}: cannot parse {raw!r} as {kind}") from None
    if not math.isfinite(value):
        raise ConfigError(f"parameter {name!r}: {raw!r} is not a finite number")
    if kind == "int":
        return int(raw) if raw.strip().lstrip("+-").isdigit() else int(value)
    return value


def parse_param_value(spec: ParamSpec, raw: str):
    """Parse one command-line/config value according to the parameter's kind."""
    if spec.kind in ("int", "float"):
        return _parse_scalar(spec.kind, spec.name, raw)
    base = spec.kind.removesuffix("_list")
    parts = [p for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"parameter {spec.name!r}: empty list")
    return [_parse_scalar(base, spec.name, p.strip()) for p in parts]


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


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


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
    _require(0.0 <= a2 <= 1.0, "parameter 'alpha2' must lie in [0, 1]")
    _require(1 <= trials <= MAX_ROWS, f"parameter 'trials' must lie in [1, {MAX_ROWS}]")
    import numpy as np

    from .hilbert import SIGMA_Z, StateVector
    from .measurement import measure_outcomes

    psi = StateVector(np.array([math.sqrt(a2), math.sqrt(1.0 - a2)], dtype=complex))
    rng = np.random.default_rng(seed)
    outcomes = np.rint(measure_outcomes(psi, SIGMA_Z, rng, trials)).astype(int)
    freq = int(np.count_nonzero(outcomes == 1)) / trials
    return ExperimentResult(
        header=("trial", "outcome"),
        columns=(np.arange(trials), outcomes),
        summary={
            "frequency_plus": freq,
            "expected": a2,
            "binomial_stderr": math.sqrt(max(a2 * (1.0 - a2), 0.0) / trials),
        },
    )


def _run_weakvalue(params: dict, seed: int) -> ExperimentResult:
    ratio, sigma, trials = params["g_over_sigma"], params["sigma"], params["trials"]
    angle = params["post_angle"]
    _require(0.0 < ratio <= MAX_G_OVER_SIGMA,
             f"parameter 'g_over_sigma' must lie in (0, {MAX_G_OVER_SIGMA:g}]")
    _require(MIN_SIGMA <= sigma <= MAX_SIGMA,
             f"parameter 'sigma' must lie in [{MIN_SIGMA:g}, {MAX_SIGMA:g}]")
    _require(1 <= trials <= MAX_ROWS, f"parameter 'trials' must lie in [1, {MAX_ROWS}]")
    g = ratio * sigma
    _require(g >= sys.float_info.min,
             f"parameters 'g_over_sigma' * 'sigma' must be at least {sys.float_info.min:g}")
    import numpy as np

    from .hilbert import SIGMA_Z, StateVector
    from .measurement import TwoState, weak_value

    forward = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    backward = StateVector(np.array([math.cos(angle), -math.sin(angle)], dtype=complex))
    ts = TwoState(forward, backward)
    value = weak_value(ts, SIGMA_Z)
    est = _module.weak_estimate(ts, SIGMA_Z, g, sigma, trials, np.random.default_rng(seed))
    return ExperimentResult(
        header=("index", "reading"),
        columns=(np.arange(est.samples.size), est.samples),
        summary={
            "weak_value_re": value.real,
            "weak_value_im": value.imag,
            "mean_over_g": est.mean / g,
            "stderr_over_g": est.stderr / g,
            "acceptance_rate": est.acceptance_rate,
            "accepted": est.accepted,
        },
    )


def _sigma_z_moments(a0: complex, a1: complex) -> tuple[float, float]:
    """One-copy mean and uncertainty of sigma_z on the normalized a0|0> + a1|1>.

    abar = |a0|^2 - |a1|^2, and delta^2 = 1 - abar^2 because sigma_z^2 = I.
    """
    abar = abs(a0) ** 2 - abs(a1) ** 2
    return abar, math.sqrt(1.0 - abar * abar)


def _run_convergence(params: dict, seed: int) -> ExperimentResult:
    sizes = params["Ns"]
    _require(all(n >= 1 for n in sizes), "parameter 'Ns' entries must be at least 1")
    logs_n = [math.log10(float(n)) for n in sizes]
    _require(len(set(logs_n)) >= 2,
             "parameter 'Ns' needs two sizes whose float log10 differ to fit a slope")
    # sigma_z on |+> = (|0> + |1>)/sqrt(2): abar = 0 and delta = 1 exactly.
    plus = 1.0 / math.sqrt(2.0)
    abar, delta = _sigma_z_moments(plus, plus)
    averages = [ensemble_average(((n, abar, delta),)) for n in sizes]
    residuals = [residual for _, residual in averages]
    slope = _slope(logs_n, [math.log10(r) for r in residuals])
    return ExperimentResult(
        header=("N", "residual"),
        columns=(list(sizes), residuals),
        summary={"slope": slope, "expected_slope": -0.5, "abar": averages[-1][0]},
    )


def _run_commutator(params: dict, seed: int) -> ExperimentResult:
    brute_max, closed_ns = params["brute_max"], params["closed_Ns"]
    _require(1 <= brute_max <= SPIN_ORACLE_MAX,
             f"parameter 'brute_max' must lie in [1, {SPIN_ORACLE_MAX}]")
    _require(all(n >= 1 for n in closed_ns), "parameter 'closed_Ns' entries must be >= 1")
    brute = [_module.brute_force_spin_commutator(n) for n in range(1, brute_max + 1)]
    errors = [err for _, err in brute]
    return ExperimentResult(
        header=("spins", "method", "scale", "identity_error"),
        columns=(
            [*range(1, brute_max + 1), *closed_ns],
            ["brute"] * brute_max + ["closed"] * len(closed_ns),
            [scale for scale, _ in brute]
            + [_module.average_spin_commutator(n) for n in closed_ns],
            errors + [""] * len(closed_ns),
        ),
        summary={"max_identity_error": max(errors), "brute_max": brute_max},
    )


def _model_from(params: dict, env_size: int) -> RobustnessModel:
    amp = 1.0 / math.sqrt(2.0)
    try:
        return RobustnessModel(
            alpha=amp,
            beta=amp,
            env_size=env_size,
            overlap=params["c"],
            n_collapsed=params["n"],
            gamma1=params["gamma1"],
            gamma2=params["gamma2"],
        )
    except (InvariantError, OrthogonalCollapseForbidden) as exc:
        raise ConfigError(str(exc)) from None


def _run_robustness(params: dict, seed: int) -> ExperimentResult:
    sizes = params["env_sizes"]
    xs = [float(n) for n in sizes]
    _require(len(set(xs)) >= 2, "parameter 'env_sizes' needs two entries that differ as floats")
    _require(all(n > params["n"] for n in sizes), "every env_size must exceed 'n'")
    _require(all(n <= MAX_ENV_SIZE for n in sizes), "every env_size must be at most 1e100")
    logs, ratios, oracles = [], [], []
    for size in sizes:
        model = _model_from(params, size)
        logs.append(log_robustness_ratio(model))
        ratios.append(robustness_ratio(model))
        oracle = ""
        if model.n_collapsed >= 1 and fits_oracle(2, size + 2):
            oracle = _module.brute_force_ratio(model)
        oracles.append(oracle)
    fitted = _slope(xs, logs) if all(map(math.isfinite, logs)) else ""
    return ExperimentResult(
        header=("env_size", "n_collapsed", "log_ratio", "ratio", "brute_ratio"),
        columns=(list(sizes), [params["n"]] * len(sizes), logs, ratios, oracles),
        summary={
            "expected_log_slope": -2.0 * math.log(params["c"]) if params["c"] > 0 else "",
            "fitted_log_slope": fitted,
        },
    )


def _run_threshold(params: dict, seed: int) -> ExperimentResult:
    targets = params["targets"]
    _require(all(t > 0 for t in targets), "parameter 'targets' entries must be positive")
    needed, at, below = [], [], []
    for target in targets:
        try:
            size = classical_threshold(
                params["n"], params["c"], params["gamma1"], params["gamma2"], target
            )
        except (InvariantError, OrthogonalCollapseForbidden) as exc:
            raise ConfigError(str(exc)) from None
        needed.append(size)
        at.append(robustness_ratio(_model_from(params, size)))
        below.append(
            robustness_ratio(_model_from(params, size - 1)) if size - 1 > params["n"] else ""
        )
    return ExperimentResult(
        header=("target", "env_size_needed", "ratio_at_threshold", "ratio_below"),
        columns=(list(targets), needed, at, below),
        summary={
            "targets": ",".join(repr(float(t)) for t in targets),
            "env_sizes_needed": ",".join(str(n) for n in needed),
        },
    )


def _run_decay(params: dict, seed: int) -> ExperimentResult:
    n0, tau = params["n0"], params["time_constant"]
    t_max, steps = params["t_max"], params["steps"]
    _require(n0 >= 0.0, "parameter 'n0' must be non-negative")
    _require(tau > 0.0, "parameter 'time_constant' must be positive")
    _require(t_max >= 0.0, "parameter 't_max' must be non-negative")
    _require(2 <= steps <= MAX_ROWS, f"parameter 'steps' must lie in [2, {MAX_ROWS}]")
    # The points of np.linspace(0.0, t_max, steps) bit for bit: i * step, or
    # i / (steps - 1) * t_max when the step underflows to 0, plus the start
    # 0.0 (which turns -0.0 into 0.0); the last point is t_max itself.
    step = t_max / (steps - 1)
    if step:
        times = [i * step for i in range(steps - 1)]
    else:
        times = [i / (steps - 1) * t_max + 0.0 for i in range(steps - 1)]
    times.append(t_max)
    times = array("d", times)
    # core_decay's own expression, checked once above instead of per row.
    remaining = array("d", [n0 * math.exp(-t / tau) for t in times])
    return ExperimentResult(
        header=("t", "remaining"),
        columns=(times, remaining),
        summary={"n0": n0, "time_constant": tau, "final_remaining": remaining[-1]},
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            name="born",
            description="Projective measurement statistics of sqrt(a2)|0> + sqrt(1-a2)|1>",
            params=(
                ParamSpec("alpha2", "float", 0.36, "weight |<0|psi>|^2 of the +1 outcome"),
                ParamSpec("trials", "int", 100000, "number of projective trials"),
            ),
            runner=_run_born,
        ),
        Experiment(
            name="weakvalue",
            description="Weakly coupled, post-selected pointer readings and their mean shift",
            params=(
                ParamSpec("g_over_sigma", "float", 0.01, "coupling strength over pointer spread"),
                ParamSpec("sigma", "float", 1.0, "pointer spread"),
                ParamSpec("trials", "int", 200000, "Monte Carlo trials before post-selection"),
                ParamSpec("post_angle", "float", math.pi / 8.0,
                          "backward state cos(a)|0> - sin(a)|1>"),
            ),
            runner=_run_weakvalue,
        ),
        Experiment(
            name="convergence",
            description="1/sqrt(N) shrinkage of the ensemble-average operator residual",
            params=(
                ParamSpec("Ns", "int_list", [100, 1000, 10000, 100000], "ensemble sizes"),
            ),
            runner=_run_convergence,
        ),
        Experiment(
            name="commutator",
            description="Averaged-spin commutator identity, brute-force checks plus closed form",
            params=(
                ParamSpec("brute_max", "int", 10, "largest spin count for the brute-force check"),
                ParamSpec("closed_Ns", "int_list", [1000000], "closed-form sizes to tabulate"),
            ),
            runner=_run_commutator,
        ),
        Experiment(
            name="robustness",
            description="Backward-reconstruction robustness ratio versus record size",
            params=(
                ParamSpec("c", "float", 0.9, "per-qubit record overlap"),
                ParamSpec("n", "int", 5, "collapsed qubit count"),
                ParamSpec("gamma1", "float", 0.9, "collapse overlap for the right branch"),
                ParamSpec("gamma2", "float", 0.9, "collapse overlap for the wrong branch"),
                ParamSpec("env_sizes", "int_list", [8, 10, 12, 16, 20], "record sizes N"),
            ),
            runner=_run_robustness,
        ),
        Experiment(
            name="threshold",
            description="Record size needed for a classically robust reading",
            params=(
                ParamSpec("c", "float", 0.9, "per-qubit record overlap"),
                ParamSpec("n", "int", 0, "collapsed qubit count"),
                ParamSpec("gamma1", "float", 0.9, "collapse overlap for the right branch"),
                ParamSpec("gamma2", "float", 0.9, "collapse overlap for the wrong branch"),
                ParamSpec("targets", "float_list", [1e3, 1e6, 1e9], "ratio targets"),
            ),
            runner=_run_threshold,
        ),
        Experiment(
            name="decay",
            description="Exponential decay of the intact record core",
            params=(
                ParamSpec("n0", "float", 1e6, "initial record size"),
                ParamSpec("time_constant", "float", 1.0, "e-folding time T"),
                ParamSpec("t_max", "float", 10.0, "last sampled time"),
                ParamSpec("steps", "int", 101, "number of samples in [0, t_max]"),
            ),
            runner=_run_decay,
        ),
    )
}
