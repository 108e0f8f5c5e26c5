"""Mutation table: one-line edits of the program that tier-1 must catch.

Each row names a file, an exact text in it, the text that replaces it and the
reason the tests must tell the two apart. For each row named (every row when
none is named),

    python tests/mutants.py [NAME...]

copies src/, tests/, perfbench/, README.md and pyproject.toml into a
temporary directory, applies the row there, runs `pytest -x -q` on the copy
for at most TIMEOUT_S and reports the row as killed, survived or timed out,
with the first failing test. The unedited copy is run first, since a suite
that fails anyway would kill every row. It exits 0 when every row ends
as it is expected to: killed, timed out for a row that makes a loop run on,
and survived for a row marked equivalent, where no input tells the two texts
apart. A row that needs root is skipped for any other user. The file is not
named test_*, so pytest does not collect it. `test_mutants.py` checks in
tier-1 that each row's old text occurs exactly once in its file; the runs
here leave it out, since every mutated copy would fail it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
# Well above a whole tier-1 run (about 30 s on a 2-core host) and below the
# 300 s bound tests/conftest.py puts on each test.
TIMEOUT_S = 180


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    reason: str
    expect: str = "killed"  # or "timed out", or "survived" for an equivalent row
    root_only: bool = False


MUTANTS = (
    Mutant("inverse-cdf-side-left", "src/tsvf_sim/pointer.py",
           'cum[-1], side="right")', 'cum[-1], side="left")',
           "a zero-weight branch at a draw of exactly 0 would be picked"),
    Mutant("binomial-unclamped", "src/tsvf_sim/measurement.py",
           "min(density.success_prob, 1.0)", "density.success_prob",
           "a success probability rounded above 1 makes rng.binomial raise"),
    Mutant("slope-uncorrected", "src/tsvf_sim/experiments.py",
           "    sxy = math.fsum([*(u * v for u, v in zip(dx, dy)), -sx * sy / k])\n"
           "    sxx = math.fsum([*(u * u for u in dx), -sx * sx / k])\n",
           "    sxy = math.fsum([*(u * v for u, v in zip(dx, dy))])\n"
           "    sxx = math.fsum([*(u * u for u in dx)])\n",
           "without the corrected two-pass terms, clustered xs lose the slope's last digits"),
    Mutant("sample-block-doubled", "src/tsvf_sim/pointer.py",
           "block = max(SAMPLE_BLOCK_CELLS // self.means.size, 1)",
           "block = max(2 * SAMPLE_BLOCK_CELLS // self.means.size, 1)",
           "the readings are drawn in other blocks, so the weakvalue golden changes"),
    Mutant("write-out-no-fchmod", "src/tsvf_sim/cli.py",
           "os.fchmod(fd, st.st_mode & 0o7777)", "pass",
           "a replaced output would lose its mode"),
    Mutant("decay-times-minus-zero", "src/tsvf_sim/experiments.py",
           "i / (steps - 1) * t_max + 0.0 for i", "i / (steps - 1) * t_max for i",
           "with t_max = -0.0 the times read -0.0, where np.linspace gives 0.0"),
    Mutant("threshold-below-at-n", "src/tsvf_sim/experiments.py",
           'size - 1 > params["n"]', 'size - 1 >= params["n"]',
           "at N = n + 1 the record below has no uncollapsed qubit (matrix line c=0 n=3)"),
    Mutant("min-acceptance-1e-13", "src/tsvf_sim/pointer.py",
           "MIN_ACCEPTANCE = 1e-12", "MIN_ACCEPTANCE = 1e-13",
           "the documented sampling limit; a boundary test pins it from below"),
    Mutant("min-acceptance-1e-11", "src/tsvf_sim/pointer.py",
           "MIN_ACCEPTANCE = 1e-12", "MIN_ACCEPTANCE = 1e-11",
           "the documented sampling limit; a boundary test pins it from above"),
    Mutant("negligible-weight-1e-27", "src/tsvf_sim/pointer.py",
           "NEGLIGIBLE_WEIGHT = 1e-28", "NEGLIGIBLE_WEIGHT = 1e-27",
           "the documented branch-dropping limit; a boundary test pins it from above"),
    Mutant("negligible-weight-1e-29", "src/tsvf_sim/pointer.py",
           "NEGLIGIBLE_WEIGHT = 1e-28", "NEGLIGIBLE_WEIGHT = 1e-29",
           "the documented branch-dropping limit; a boundary test pins it from below"),
    Mutant("threshold-unit-step", "src/tsvf_sim/twotime.py",
           "min(2 * high - n_collapsed, limit)", "min(high + 1, limit)",
           "a record of about 1e308 qubits is then searched one qubit at a time",
           expect="timed out"),
    Mutant("fmt-none-as-text", "src/tsvf_sim/cli.py",
           'return "" if value is None else str(value)', "return str(value)",
           "a cell or summary value with no number would read None, not empty"),
    Mutant("no-owner-check", "src/tsvf_sim/cli.py",
           "if (new.st_uid, new.st_gid) != (st.st_uid, st.st_gid):", "if False:",
           "a foreign-owned output would be replaced by a root-owned file; "
           "only root can make such an output, so only a root run can tell",
           root_only=True),
    Mutant("orthogonal-post-rejected", "src/tsvf_sim/pointer.py",
           'raise NoAcceptedTrials("post-selection state is orthogonal to all branches")',
           'raise InvariantError("post-selection state is orthogonal to all branches")',
           "an orthogonal post is a valid run that accepts nothing (exit 3), not rejected "
           "input (exit 2)"),
    Mutant("orthogonal-collapse-allowed", "src/tsvf_sim/twotime.py",
           "if self.n_collapsed >= 1 and self.gamma1 == 0.0:", "if False:",
           "a collapse orthogonal to the recorded branch would erase the record"),
    Mutant("inconsistent-history-allowed", "src/tsvf_sim/branches.py",
           "if p_right == 0.0:", "if False:",
           "a reading that no branch carries would get weights (0, 0), not an error"),
    Mutant("operator-entries-unbounded", "src/tsvf_sim/hilbert.py",
           "np.abs(m).max() <= SCALE_MAX", "np.abs(m).max() < np.inf",
           "finite entries above SCALE_MAX overflow an eigenvalue gap or a weak value"),
    Mutant("ensemble-total-unbounded", "src/tsvf_sim/ensemble.py",
           'require_in("the total group count", sum(count for _, count in groups), NON_NEGATIVE)',
           "pass",
           "a total count beyond the float range makes the closed form raise OverflowError"),
    Mutant("writer-no-column-count-check", "src/tsvf_sim/cli.py",
           "if not result.header or len(block) != len(result.header):", "if False:",
           "a block with a column missing would be written with empty cells"),
    Mutant("writer-no-equal-length-check", "src/tsvf_sim/cli.py",
           "if len(lengths) != 1:", "if False:",
           "a block with columns of unequal length would fail with an obscure slice error, "
           "or lose rows"),
    Mutant("norm-squares-entries", "src/tsvf_sim/hilbert.py",
           "return math.hypot(*np.abs(vector).tolist())", "return float(np.linalg.norm(vector))",
           "a norm near 1e-170 would underflow to 0.0, and one near 2e300 overflow with a "
           "numpy warning"),
    Mutant("dot-over-no-overflow-except", "src/tsvf_sim/twotime.py",
           "    except OverflowError:  # the quotient is beyond the float range",
           "    except ZeroDivisionError:  # the quotient is beyond the float range",
           "a mean beyond the float range would raise a bare OverflowError, not read +-inf"),
    Mutant("residual-sum-of-squares", "src/tsvf_sim/twotime.py",
           "math.hypot(*(math.sqrt(n) * delta for n, delta in zip(counts, deltas))) / total",
           "math.sqrt(sum(n * delta ** 2 for n, delta in zip(counts, deltas))) / total",
           "delta ** 2 raises OverflowError above about 1.34e154 and underflows to 0.0 "
           "below about 1e-162"),
)


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def run(mutant: Mutant | None) -> tuple[str, float, str]:
    """Run tier-1 on a copy with `mutant` applied, or on an unedited copy for
    None: (survived, killed or timed out; seconds; the first failed test)."""
    with tempfile.TemporaryDirectory(prefix="tsvf-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old text is not in {mutant.file} once")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))  # the copy's package, not this one
        start = time.monotonic()
        with open(tree / "pytest.log", "w+", errors="replace") as log:
            proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                     "no:cacheprovider", "--ignore", "tests/test_mutants.py"],
                                    cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                outcome = "killed" if proc.wait(timeout=TIMEOUT_S) else "survived"
            except subprocess.TimeoutExpired:
                outcome = "timed out"
            finally:  # on a timeout or Ctrl-C, and any child a test left behind
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            log.seek(0)
            failed = next((line.rstrip() for line in log
                           if line.startswith(("FAILED ", "ERROR "))), "")
    return outcome, time.monotonic() - start, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="rows to run (default all)")
    args = parser.parse_args(argv)
    # So that a stopped pass still kills its pytest group and removes its copy.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    rows = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in rows]
    if unknown:
        parser.error(f"unknown rows {unknown} (known: {', '.join(rows)})")
    outcome, seconds, failed = run(None)
    print(f"unmutated: {'passed' if outcome == 'survived' else 'failed'} ({seconds:.1f} s) "
          f"{failed}", flush=True)
    if outcome != "survived":
        return 1
    as_expected = True
    for mutant in (rows[name] for name in args.names or rows):
        if mutant.root_only and os.geteuid() != 0:
            print(f"{mutant.name}: skipped, needs root", flush=True)
            continue
        outcome, seconds, failed = run(mutant)
        mark = "" if outcome == mutant.expect else f"  UNEXPECTED, expected {mutant.expect}"
        as_expected &= outcome == mutant.expect
        print(f"{mutant.name}: {outcome} ({seconds:.1f} s) {failed}{mark}", flush=True)
    return 0 if as_expected else 1


if __name__ == "__main__":
    sys.exit(main())
