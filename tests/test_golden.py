"""Byte-level goldens: every experiment at a fixed seed and small parameters.

Reruns of the same code (criterion 10) cannot catch a refactor that changes
output; these files can. A change that alters an output on purpose
regenerates the affected goldens deliberately and says so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py [EXPERIMENT ...]

rewrites only the named experiments' files, or all of them when none is
named, and prints each changed cell (line, column name, old and new value)
or "unchanged"; an unknown name exits non-zero before any file is written.
"""

import contextlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsvf_sim
from tsvf_sim.cli import BLAS_THREAD_VARS, main

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
    path = [str(Path(tsvf_sim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_threads, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "tsvf_sim.cli", *_args(name, out, params)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


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


if __name__ == "__main__":
    names = sys.argv[1:] or list(PARAMS)
    unknown = [name for name in names if name not in PARAMS]
    if unknown:
        sys.exit(f"unknown experiment(s) {', '.join(unknown)}; choose from {', '.join(PARAMS)}")
    for experiment in names:
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
