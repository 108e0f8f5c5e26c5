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
import sys
from pathlib import Path

import pytest

from tsvf_sim.cli import main

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


def _run(name: str, out: Path) -> int:
    args = ["run", "--experiment", name, "--seed", SEED, "--out", str(out)]
    for param in PARAMS[name]:
        args += ["--param", param]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(args)


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
