"""Guard for the names the span tracer of the benchmark wraps on the weak path.

`perfbench/trace_child.py` times a run without editing the program: it
rebinds the module-level names the program looks up at call time, here
`experiments.weak_estimate`, `measurement.readout_density` and the
`ReadoutDensity.sample` method. A refactor that stops calling one of them
leaves its span empty, and the benchmark only checks that each metric is
printed, so a layer time of 0 would pass unnoticed. This test runs the
tracer unedited and checks that each wrapped layer records exactly one span
and that tracing leaves the CSV unchanged. It goes when ROADMAP item 1
deletes `trace_child.py`.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["run", "--experiment", "weakvalue", "--param", "trials=2000"]
WEAK_PATH_SPANS = ("measurement.weak_estimate", "pointer.readout_density", "pointer.sample")


def _run(tmp_path, prefix, out):
    proc = subprocess.run([sys.executable, *prefix, *ARGS, "--out", str(out)], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_traced_weakvalue_run_records_each_weak_layer_once(tmp_path):
    spans = tmp_path / "spans.json"
    traced = _run(tmp_path, [str(ROOT / "perfbench" / "trace_child.py"), str(spans), "guard",
                             "--"], tmp_path / "traced.csv")
    plain = _run(tmp_path, ["-m", "tsvf_sim.cli"], tmp_path / "plain.csv")
    doc = json.loads(spans.read_text())
    counts = Counter(doc["names"][span[0]] for span in doc["spans"])
    assert {name: counts[name] for name in WEAK_PATH_SPANS} == dict.fromkeys(WEAK_PATH_SPANS, 1)
    assert traced == plain
