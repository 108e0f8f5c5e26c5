"""Byte-level goldens: every experiment at a fixed seed and small parameters,
and a matrix of edge configurations.

Reruns of the same code (criterion 10) cannot catch a refactor that changes
output; these files can. Each golden CSV holds one experiment's output. Each
line of golden/matrix.tsv holds one edge configuration's argument list (with
no --out), its exit code, the sha256 and byte length of its CSV ("-" when
none is written), its printed summary and the first line of its stderr ("-"
when either is empty). A change that alters an output on purpose regenerates
the affected files deliberately and says so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py [EXPERIMENT | matrix ...]

rewrites only the named experiments' files (and the matrix for `matrix`), or
all of them when none is named, and prints each changed cell (line, column
name, old and new value) or "unchanged"; an unknown name exits non-zero
before any file is written.
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import pytest

from tsvf_sim.cli import main
from helpers import run_child

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = "31337"
PARAMS = {
    "born": ["trials=2000"],
    "weakvalue": ["trials=2000"],
    "convergence": [],
    "commutator": ["brute_max=6"],
    "robustness": [],
    "threshold": [],
    "decay": [],
}
MATRIX = GOLDEN_DIR / "matrix.tsv"
MATRIX_FIELDS = ("argv", "exit", "sha256", "bytes", "summary", "stderr")
SAMPLED = [
    *(f"weakvalue --param {params}" for params in [
        "post_angle=3 --param g_over_sigma=1000",
        "sigma=0.25 --param g_over_sigma=0.5 --param trials=5000",
        "sigma=1e-100",
        "g_over_sigma=1e-9 --param trials=100",
        "trials=1 --param post_angle=0",
    ]),
    *(f"born --param alpha2={a2}" for a2 in ["0", "1", "0.5", "1e-17"]),
]
MATRIX_ARGV = [
    *(f"run --seed {seed} --experiment {config}" for config in SAMPLED
      for seed in ["0", "7", "31337"]),
    # One accepted trial, so its standard error is inf.
    "run --seed 1 --experiment weakvalue --param trials=1 --param post_angle=0",
    # Orthogonal pre- and post-selected states: no weak value exists.
    "run --experiment weakvalue --param post_angle=0.7853981633974483",
    "run --experiment weakvalue --param g_over_sigma=1e-300 --param sigma=1e-100",
    *(f"run --seed {seed} --experiment born --param trials=10"
      for seed in ["1e3", "12.0", "18446744073709551615",
                   "12.5", "-1", "18446744073709551616", "xyz"]),
    "run --experiment robustness --param env_sizes=13,1e100",
    "run --experiment robustness --param n=3 --param env_sizes=8,10,12 --param gamma2=0.7",
    "run --experiment robustness --param n=1 --param gamma1=0",
    # Each projected weight, near 1e-340, underflows: brute_ratio is left empty.
    "run --experiment robustness --param env_sizes=2,3 --param n=1 --param c=0.5"
    " --param gamma1=1e-170 --param gamma2=1e-170",
    # c = 0: no slope is expected or fitted, and N = 16, 20 are past the oracle's
    # limit, so both summary values and two brute_ratio cells are empty.
    "run --experiment robustness --param c=0",
    "run --experiment threshold --param targets=1e300",
    "run --experiment threshold --param n=1 --param gamma1=0",
    # The smallest record, N = n + 1, already reaches every target: ratio_below is empty.
    "run --experiment threshold --param c=0 --param n=3",
    # The record needed exceeds 2^1023 qubits but still fits in a float.
    "run --experiment threshold --param n=16e288 --param c=0.9999999999999999"
    " --param gamma1=1e-300 --param gamma2=0.9 --param targets=1e6",
    # n ln(gamma1) overflows to -inf, so no record size reaches the target.
    "run --experiment threshold --param n=1e307 --param gamma1=1e-300 --param gamma2=0.5",
    "run --experiment convergence --param Ns=1,100000000000000000000",
    "run --experiment commutator --param brute_max=1 --param closed_Ns=1,2,3",
    # 2N overflows a float here; 1/(2N) = 5e-309 is a subnormal.
    "run --experiment commutator --param brute_max=2 --param closed_Ns=1e308",
    # Around experiments.BLOCK = 16384, the rows decay makes at a time; the
    # steps around cli.RENDER_CHUNK = 2048, the rows formatted at a time, are below.
    *(f"run --experiment decay --param steps={steps}" for steps in ["16384", "16385", "32769"]),
    "run --experiment decay --param t_max=1e300",
    "run --experiment decay --param time_constant=1e-300",
    # The +1 branch has Born weight 1e-300: the sampler keeps it, readout_density
    # would drop it.
    *(f"run --seed {seed} --experiment born --param alpha2=1e-300 --param trials=1000"
      for seed in ["0", "7", "31337"]),
    # The ends of the pointer spread's domain, errors.SIGMA_DOMAIN.
    "run --experiment weakvalue --param sigma=1e-150",
    "run --experiment weakvalue --param sigma=1e150",
    # Parsed, then rejected by the readout density's mean bound |g a| <= 1e150.
    "run --experiment weakvalue --param sigma=1e150 --param g_over_sigma=1000",
    # Below MIN_G_OVER_SIGMA: 127 trials pass, but mean_over_g would overflow to -inf.
    "run --seed 0 --experiment weakvalue --param sigma=1e100 --param g_over_sigma=5e-324"
    " --param trials=1000",
    # The record model's domains are checked while parsing, whatever n is.
    *(f"run --experiment {experiment} --param {params}"
      for experiment in ["robustness", "threshold"]
      for params in ["n=0 --param gamma1=5", "n=0 --param gamma2=1.5", "c=1", "c=-0.1", "n=-1"]),
    *(f"run --experiment decay --param steps={steps}" for steps in ["2047", "2048", "4097"]),
    # About 3000 accepted readings: the sampler draws two blocks of
    # pointer.SAMPLE_BLOCK_CELLS kernel values.
    "run --seed 5 --experiment weakvalue --param trials=20000",
]


def _args(name: str, out: Path, params: list[str]) -> list[str]:
    args = ["run", "--experiment", name, "--seed", SEED, "--out", str(out)]
    for param in params:
        args += ["--param", param]
    return args


def _run(name: str, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(_args(name, out, PARAMS[name]))


def _run_in_child(name: str, out: Path, params: list[str], **blas_threads) -> bytes:
    """Run `tsvf-sim` in a fresh interpreter, where numpy, if used, loads inside `main`.

    The BLAS thread variables are only those given, not this process's.
    """
    proc = run_child(["-m", "tsvf_sim.cli", *_args(name, out, params)], **blas_threads)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def _matrix_line(argv: str, out: Path) -> str:
    """Run `tsvf-sim <argv> --out <out>` in process and describe it as one matrix line."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv.split(), "--out", str(out)])
    data = out.read_bytes() if out.exists() else None
    summary = [line.removeprefix("summary: ") for line in stdout.getvalue().splitlines()
               if line.startswith("summary: ")]
    return "\t".join([
        argv,
        str(code),
        hashlib.sha256(data).hexdigest() if data is not None else "-",
        str(len(data)) if data is not None else "-",
        summary[0] if summary else "-",
        stderr.getvalue().partition("\n")[0] or "-",
    ])


def _matrix_cells(text: str) -> dict[str, dict[str, str]]:
    """Each matrix line's fields by name, keyed by its argument list."""
    lines = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    return {fields[0]: dict(zip(MATRIX_FIELDS, fields)) for fields in lines}


def changed_matrix_cells(old: str, new: str) -> list[str]:
    """One 'argv, field: old -> new' entry per matrix cell that differs."""
    before, after = _matrix_cells(old), _matrix_cells(new)
    changes = []
    for argv in dict.fromkeys([*before, *after]):
        was, now = before.get(argv, {}), after.get(argv, {})
        for name in MATRIX_FIELDS[1:]:
            if was.get(name) != now.get(name):
                changes.append(f"{argv}, {name}: {was.get(name, '(absent)')} -> "
                               f"{now.get(name, '(absent)')}")
    return changes


def _cells(text: str) -> list[dict[str, str]]:
    """Each line's cells by column name; '#' lines hold key=value fields."""
    lines, header = [], None
    for line in text.splitlines():
        if line.startswith("#"):
            lines.append(dict(field.partition("=")[::2] for field in line.split()[2:]))
        elif header is None:
            header = line.split(",")
            lines.append({f"column {i}": name for i, name in enumerate(header, 1)})
        else:
            lines.append(dict(zip(header, line.split(","))))
    return lines


def changed_cells(old: str, new: str) -> list[str]:
    """One 'line N, column: old -> new' entry per cell that differs."""
    changes = []
    pairs = itertools.zip_longest(_cells(old), _cells(new), fillvalue={})
    for number, (before, after) in enumerate(pairs, 1):
        for name in dict.fromkeys([*before, *after]):
            if before.get(name) != after.get(name):
                was, now = before.get(name, "(absent)"), after.get(name, "(absent)")
                changes.append(f"line {number}, {name}: {was} -> {now}")
    return changes


def test_changed_cells_names_line_column_and_values():
    old = "# summary worst=1e-17 n=6\nspins,error\n5,1e-17\n6,4e-18\n"
    new = "# summary worst=2e-17 n=6\nspins,error\n5,1e-17\n6,3e-18\n7,0.0\n"
    assert changed_cells(old, old) == []
    assert changed_cells(old, new) == [
        "line 1, worst: 1e-17 -> 2e-17",
        "line 4, error: 4e-18 -> 3e-18",
        "line 5, spins: (absent) -> 7",
        "line 5, error: (absent) -> 0.0",
    ]


@pytest.mark.parametrize("name", PARAMS)
def test_output_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert _run(name, out) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("argv", MATRIX_ARGV)
def test_edge_configuration_matches_matrix(tmp_path, argv):
    expected = _matrix_cells(MATRIX.read_text()).get(argv, {})
    actual = dict(zip(MATRIX_FIELDS, _matrix_line(argv, tmp_path / "m.csv").split("\t")))
    assert actual == expected


def test_matrix_lists_exactly_its_configurations():
    assert list(_matrix_cells(MATRIX.read_text())) == MATRIX_ARGV


# This process loaded numpy long ago, with its default BLAS threads; a fresh
# `tsvf-sim run` loads it on one BLAS thread.
@pytest.mark.parametrize("name", ["born", "weakvalue", "convergence", "commutator", "robustness"])
def test_fresh_interpreter_output_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert _run_in_child(name, out, PARAMS[name]) == (GOLDEN_DIR / f"{name}.csv").read_bytes()


# weakvalue loads numpy, so a user's BLAS thread count reaches it.
def test_user_blas_thread_count_does_not_change_the_output(tmp_path):
    params = PARAMS["weakvalue"]
    default = _run_in_child("weakvalue", tmp_path / "default.csv", params)
    assert _run_in_child("weakvalue", tmp_path / "two.csv", params,
                         OPENBLAS_NUM_THREADS="2") == default


def _write_matrix() -> None:
    old = MATRIX.read_text() if MATRIX.exists() else ""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "m.csv"
        lines = [_matrix_line(argv, out) for argv in MATRIX_ARGV]
    new = "\n".join(["# " + "\t".join(MATRIX_FIELDS), *lines]) + "\n"
    MATRIX.write_text(new)
    changes = changed_matrix_cells(old, new)
    print(f"matrix: {len(changes)} changed cell(s)" if new != old else "matrix: unchanged")
    for change in changes:
        print(f"  {change}")


if __name__ == "__main__":
    names = sys.argv[1:] or [*PARAMS, "matrix"]
    unknown = [name for name in names if name not in PARAMS and name != "matrix"]
    if unknown:
        sys.exit(f"unknown name(s) {', '.join(unknown)}; choose from "
                 f"{', '.join(PARAMS)} or matrix")
    for experiment in names:
        if experiment == "matrix":
            _write_matrix()
            continue
        path = GOLDEN_DIR / f"{experiment}.csv"
        old = path.read_text() if path.exists() else ""
        if _run(experiment, path) != 0:
            sys.exit(f"{experiment}: run failed")
        new = path.read_text()
        changes = changed_cells(old, new)
        if new == old:
            print(f"{experiment}: unchanged")
        else:
            print(f"{experiment}: {len(changes)} changed cell(s)")
        for change in changes:
            print(f"  {change}")
