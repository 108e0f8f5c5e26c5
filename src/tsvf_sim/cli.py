"""Command-line entry point: `tsvf-sim run ...` and `tsvf-sim list`.

One experiment per process. Configuration comes from flags, optionally merged
over a key=value config file (flags win); the seed is parsed like an int
parameter. `main` is the one place that maps errors to exit codes: 0 success,
2 for a ConfigError (any input the package rejects, see errors.py), 3 for any
other error and for a failed write.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError
from .experiments import (
    EXPERIMENTS,
    Experiment,
    ExperimentResult,
    ParamSpec,
    parse_param_value,
    resolve_params,
)

SEED = ParamSpec("seed", "int", 0, "unsigned 64-bit RNG seed", 0, 2 ** 64 - 1)
# Rows formatted at a time: the cells of one chunk are the only per-cell
# Python objects alive, so render memory is the text plus a fixed overhead.
RENDER_CHUNK = 1 << 14
# OpenBLAS takes its thread count from the first of these that is set, read
# once when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _summary_text(summary: dict) -> str:
    """The summary record as space-separated key=value pairs."""
    return " ".join(f"{k}={_fmt(v)}" for k, v in summary.items())


def _cells(column) -> list[str]:
    """Format one column slice; every cell gets the text `_fmt` would give it.

    A list is formatted cell by cell. Any other column is typed (a numpy
    array or an `array('d')`): its `tolist()` holds only Python floats or only
    Python ints, whose `repr` is the text `_fmt` gives them.
    """
    if isinstance(column, list):
        return list(map(_fmt, column))
    return list(map(repr, column.tolist()))


def _row_chunks(columns):
    """Yield the CSV data rows as text, RENDER_CHUNK rows at a time.

    A chunk is one flat list in which every cell is followed by a comma, or
    by a newline at the end of its row. Each column's cells are put in with
    one strided slice assignment, so no per-row tuple or string is made, and
    the list is joined once.
    """
    width = 2 * len(columns)
    n_rows = len(columns[0])
    for start in range(0, n_rows, RENDER_CHUNK):
        stop = min(start + RENDER_CHUNK, n_rows)
        cells = [","] * (width * (stop - start))
        cells[width - 1::width] = ["\n"] * (stop - start)
        for j, column in enumerate(columns):
            cells[2 * j::width] = _cells(column[start:stop])
        yield "".join(cells)


def render_csv(exp: Experiment, seed: int, params: dict, result: ExperimentResult) -> str:
    """Render one experiment's output: meta + summary comment lines, then CSV.

    The meta line embeds the resolved configuration (experiment, seed, every
    parameter), so a result file is self-describing and re-runnable. The
    output path is deliberately not part of it: the same configuration written
    to two different paths stays byte-identical.
    """
    meta = [f"experiment={exp.name}", f"seed={seed}"]
    meta.extend(f"{p.name}={_fmt(params[p.name])}" for p in exp.params)
    lines = ["# meta " + " ".join(meta)]
    lines.append("# summary " + _summary_text(result.summary))
    lines.append(",".join(result.header))
    return "".join(["\n".join(lines), "\n", *_row_chunks(result.columns)])


def parse_config_file(path: str) -> dict[str, str]:
    """Read a key=value config file; '#' lines and blanks are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvf-sim",
        description="Seeded, reproducible measurement-model experiments with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment and write its CSV")
    run_p.add_argument("--experiment", help="experiment name (see `tsvf-sim list`)")
    run_p.add_argument("--seed", help=f"{SEED.help} (default {SEED.default})")
    run_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one experiment parameter (repeatable)",
    )
    run_p.add_argument("--config", help="key=value config file; flags override it")
    run_p.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    sub.add_parser("list", help="list experiments and their parameter schemas")
    return parser


@contextlib.contextmanager
def _one_blas_thread():
    """Let numpy's OpenBLAS start on one thread for the runner inside.

    Only `born` and `weakvalue` load numpy. A second BLAS thread costs them
    CPU and saves no time: at defaults, a fresh `born` run took 0.26 s of CPU
    on one thread and 0.34 s on two, and `weakvalue` 0.31 s and 0.36 s, with
    wall times to match (medians of 8, 2-core Xeon). This takes effect only
    if numpy is not loaded yet, which holds in a fresh `tsvf-sim run`
    because each runner that uses numpy imports it itself. A thread count
    the user set in any of BLAS_THREAD_VARS wins, and os.environ is left as
    it was found.
    """
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_THREAD_VARS):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


def _list_experiments() -> int:
    for exp in EXPERIMENTS.values():
        print(f"{exp.name}: {exp.description}")
        for p in exp.params:
            bounds = f" in {p.bounds}" if math.isfinite(p.low) or math.isfinite(p.high) else ""
            print(f"  --param {p.name}=<{p.kind}>{bounds}  (default {_fmt(p.default)})  {p.help}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _list_experiments()

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        file_experiment = file_values.pop("experiment", None)
        file_seed = file_values.pop("seed", None)
        file_out = file_values.pop("out", None)

        name = args.experiment or file_experiment
        if not name:
            raise ConfigError("no experiment given (use --experiment or a config file)")
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r} (available: {', '.join(EXPERIMENTS)})"
            )
        exp = EXPERIMENTS[name]

        seed_raw = args.seed if args.seed is not None else file_seed
        seed = parse_param_value(SEED, seed_raw) if seed_raw is not None else SEED.default
        out = args.out or file_out or f"{name}.csv"

        overrides = dict(file_values)  # remaining file keys are parameters
        for item in args.param:
            if "=" not in item:
                raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        params = resolve_params(exp, overrides)

        with _one_blas_thread():
            result = exp.runner(params, seed)
        text = render_csv(exp, seed, params, result)
    except ConfigError as exc:
        print(f"tsvf-sim: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # no trial passed post-selection, or a defect
        print(f"tsvf-sim: runtime error: {exc}", file=sys.stderr)
        return 3

    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"tsvf-sim: cannot write {out}: {exc}", file=sys.stderr)
        return 3

    print(f"wrote {out}")
    print("summary: " + _summary_text(result.summary))
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
