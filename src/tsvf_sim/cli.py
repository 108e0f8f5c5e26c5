"""Command-line entry point: `tsvf-sim run ...` and `tsvf-sim list`.

One experiment per process. Configuration comes from flags, optionally merged
over a key=value config file (flags win); the seed is parsed like an int
parameter. `main` is the one place that maps errors to exit codes, for `list`,
the run, the CSV write and the status lines alike: 0 success, 2 for a
ConfigError wherever it is raised (any input the package rejects, see
errors.py), 3 for a failed write of the CSV or of standard output and for any
other error, an OSError of the runner included. A written CSV is kept when
only its status line fails. The error line is printed if stderr can take it;
the code is the same either way. The CSV is written chunk by chunk, to a
temporary file beside a new or plain regular output, which then replaces it:
so a failed run leaves no partial file there, and an existing output keeps its
old bytes. Any other output, such as /dev/stdout or a FIFO, is written in
place. The `tsvf-sim` command (`entry`) also turns SIGINT, SIGTERM and SIGHUP
into a quiet exit with 128 + the signal's number that takes the same cleanup,
unless the signal was inherited as ignored (as under nohup, or SIGINT in a
background job); SIGKILL cannot be caught.
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
    RENDER_CHUNK,
    Experiment,
    ExperimentResult,
    ParamSpec,
    parse_param_value,
    resolve_params,
)

SEED = ParamSpec("seed", "int", 0, "unsigned 64-bit RNG seed", 0, 2 ** 64 - 1)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return "" if value is None else str(value)


def _summary_text(summary: dict) -> str:
    """The summary record as space-separated key=value pairs."""
    return " ".join(f"{k}={_fmt(v)}" for k, v in summary.items())


def _cells(column) -> list[str]:
    """Format one column slice; every cell gets the text `_fmt` would give it.

    A list is formatted cell by cell. A range holds only Python ints, and any
    other slice is typed (a numpy array, an `array('b')` or an `array('d')`):
    its `tolist()` holds only Python floats or only Python ints. The `repr`
    of these is the text `_fmt` gives them.
    """
    if isinstance(column, list):
        return list(map(_fmt, column))
    return list(map(repr, column if isinstance(column, range) else column.tolist()))


def csv_chunks(exp: Experiment, seed: int, params: dict, result: ExperimentResult):
    """Yield one experiment's output as text: meta + summary comment lines and
    the header, then the data rows RENDER_CHUNK at a time.

    The meta line embeds the resolved configuration (experiment, seed, every
    parameter), so a result file is self-describing and re-runnable. The
    output path is deliberately not part of it: the same configuration written
    to two different paths stays byte-identical.

    A chunk of rows is one flat list in which every cell is followed by a
    comma, or by a newline at the end of its row. Each column's cells are put
    in with one strided slice assignment, so no per-row tuple or string is
    made, and the list is joined once.
    """
    meta = [f"experiment={exp.name}", f"seed={seed}"]
    meta.extend(f"{p.name}={_fmt(params[p.name])}" for p in exp.params)
    yield "\n".join(["# meta " + " ".join(meta), "# summary " + _summary_text(result.summary),
                     ",".join(result.header), ""])
    width = 2 * len(result.header)
    for columns in result.chunks(RENDER_CHUNK):
        rows = len(columns[0])
        cells = [","] * (width * rows)
        cells[width - 1::width] = ["\n"] * rows
        for j, column in enumerate(columns):
            cells[2 * j::width] = _cells(column)
        yield "".join(cells)


def render_csv(exp: Experiment, seed: int, params: dict, result: ExperimentResult) -> str:
    """The whole text that `csv_chunks` yields."""
    return "".join(csv_chunks(exp, seed, params, result))


def _open_beside(tmp: Path, st) -> int | None:
    """Make the new file `tmp` and give its descriptor, or None where it cannot
    be made or would not get the owner and group in `st`. It is made with
    0o666 less the umask, the mode open(out, "w") gives a new output.
    """
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:  # a directory where no file can be made, say
        return None
    if st is not None:
        new = os.fstat(fd)
        if (new.st_uid, new.st_gid) != (st.st_uid, st.st_gid):
            os.close(fd)
            tmp.unlink()
            return None
    return fd


def _write_out(out: str, chunks) -> None:
    """Write the text chunks to `out` as open(out, "w") would, a symbolic link
    followed, but through a new file beside it where `out` is new or a regular
    file with one link that this user may write, and `_open_beside` can make
    one: that file then replaces `out`, or is removed if a chunk or a write
    fails, so `out` keeps its old bytes and its mode. Any other output is
    written in place and keeps what it is (a device such as /dev/stdout, a
    FIFO, a hard link, a read-only file, its owner).
    """
    import stat

    try:
        st = os.stat(out)
    except FileNotFoundError:
        st = None
    fd = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(out, os.W_OK)):
        path = Path(os.path.realpath(out))
        tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
        try:  # from before the file is made, so that a stop signal removes it at any point
            fd = _open_beside(tmp, st)
            if fd is not None:
                with open(fd, "w") as f:
                    if st is not None:
                        os.fchmod(fd, st.st_mode & 0o7777)
                    f.writelines(chunks)
                os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    if fd is None:
        with open(out, "w") as f:
            f.writelines(chunks)


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


def _list_lines():
    for exp in EXPERIMENTS.values():
        yield f"{exp.name}: {exp.description}"
        for p in exp.params:
            bounds = f" in {p.bounds}" if math.isfinite(p.low) or math.isfinite(p.high) else ""
            yield f"  --param {p.name}=<{p.kind}>{bounds}  (default {_fmt(p.default)})  {p.help}"


def _configure(args) -> tuple[Experiment, int, dict, str]:
    file_values = parse_config_file(args.config) if args.config else {}
    file_experiment = file_values.pop("experiment", None)
    file_seed = file_values.pop("seed", None)
    file_out = file_values.pop("out", None)

    name = args.experiment or file_experiment
    if not name:
        raise ConfigError("no experiment given (use --experiment or a config file)")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r} (available: {', '.join(EXPERIMENTS)})")
    exp = EXPERIMENTS[name]

    seed_raw = args.seed if args.seed is not None else file_seed
    seed = parse_param_value(SEED, seed_raw) if seed_raw is not None else SEED.default
    out = args.out if args.out is not None else file_out
    if out == "":
        raise ConfigError("the output path is empty (give --out or out = a file name)")

    overrides = dict(file_values)  # remaining file keys are parameters
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return exp, seed, resolve_params(exp, overrides), out or f"{name}.csv"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = None  # what is being written, for an OSError's message
    try:
        if args.command == "list":
            text = "\n".join(_list_lines())
        else:
            exp, seed, params, path = _configure(args)
            result = exp.runner(params, seed)
            out = path
            _write_out(path, csv_chunks(exp, seed, params, result))
            text = f"wrote {path}\nsummary: {_summary_text(result.summary)}"
        out = "standard output"
        print(text, flush=True)
        return 0
    except ConfigError as exc:
        code, message = 2, f"error: {exc}"
    except OSError as exc:  # a temporary file's random name is left out
        code, message = 3, (f"cannot write {out}: {exc.strerror or exc}" if out
                            else f"runtime error: {exc}")  # raised before any write
    except Exception as exc:  # no trial passed post-selection, or a defect
        code, message = 3, f"runtime error: {exc}"
    with contextlib.suppress(OSError):  # a closed or full stderr keeps the code
        print(f"tsvf-sim: {message}", file=sys.stderr)
    return code


def entry() -> None:
    """`tsvf-sim`: `main`, where SIGINT, SIGTERM and SIGHUP exit 128 + n through its cleanup."""
    import signal  # here, so that a caller of `main` does not load it
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(signum) is not signal.SIG_IGN:  # as under nohup: it stays ignored
            signal.signal(signum, lambda signum, frame: sys.exit(128 + signum))
    if code := main():  # drop what stdout or stderr could not write, or exit gives 120
        for fd in (1, 2):
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
