"""Command-line entry point: `tsvf-sim run ...` and `tsvf-sim list`.

One experiment per process. Configuration comes from flags, optionally merged
over a key=value config file (flags win). Exit codes: 0 success, 2
configuration error, 3 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .experiments import EXPERIMENTS, Experiment, ExperimentResult, resolve_params

MAX_SEED = 2 ** 64
# Rows formatted at a time: the cells of one chunk are the only per-cell
# Python objects alive, so render memory is the text plus a fixed overhead.
RENDER_CHUNK = 1 << 14


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


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
    lines.append("# summary " + " ".join(f"{k}={_fmt(v)}" for k, v in result.summary.items()))
    lines.append(",".join(result.header))
    return "".join(["\n".join(lines), "\n", *_row_chunks(result.columns)])


def parse_config_file(path: str) -> dict[str, str]:
    """Read a key=value config file; '#' lines and blanks are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
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


def _parse_seed(raw) -> int:
    try:
        seed = int(str(raw), 10)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {raw!r}") from None
    if not 0 <= seed < MAX_SEED:
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvf-sim",
        description="Seeded, reproducible measurement-model experiments with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment and write its CSV")
    run_p.add_argument("--experiment", help="experiment name (see `tsvf-sim list`)")
    run_p.add_argument("--seed", help="unsigned 64-bit RNG seed (default 0)")
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


def _list_experiments() -> int:
    for exp in EXPERIMENTS.values():
        print(f"{exp.name}: {exp.description}")
        for p in exp.params:
            print(f"  --param {p.name}=<{p.kind}>  (default {_fmt(p.default)})  {p.help}")
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
        seed = _parse_seed(seed_raw) if seed_raw is not None else 0
        out = args.out or file_out or f"{name}.csv"

        overrides = dict(file_values)  # remaining file keys are parameters
        for item in args.param:
            if "=" not in item:
                raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        params = resolve_params(exp, overrides)

        result = exp.runner(params, seed)
        text = render_csv(exp, seed, params, result)
    except ConfigError as exc:
        print(f"tsvf-sim: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # post-selection dead ends, oracle limits, ...
        print(f"tsvf-sim: runtime error: {exc}", file=sys.stderr)
        return 3

    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"tsvf-sim: cannot write {out}: {exc}", file=sys.stderr)
        return 3

    print(f"wrote {out}")
    print("summary: " + " ".join(f"{k}={_fmt(v)}" for k, v in result.summary.items()))
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
