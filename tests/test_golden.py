"""Byte-level goldens: every experiment at a fixed seed and small parameters.

Reruns of the same code (criterion 10) cannot catch a refactor that changes
output; these files can. A change that alters an RNG stream on purpose
regenerates them deliberately with `python3 tests/test_golden.py` (run with
`src` on PYTHONPATH) and says so in CHANGES.md.
"""

import contextlib
import io
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


@pytest.mark.parametrize("name", PARAMS)
def test_output_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert _run(name, out) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for experiment in PARAMS:
        if _run(experiment, GOLDEN_DIR / f"{experiment}.csv") != 0:
            sys.exit(f"{experiment}: run failed")
