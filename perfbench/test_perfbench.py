"""Tests for the benchmark itself, at the small sizes of --smoke.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def tsvf(tmp_path: Path, *argv: str) -> str:
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", run.LAUNCH, "run", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return out.read_text()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def untraced():
    return bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")


@pytest.fixture(scope="module")
def traced():
    return bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    result, text = untraced
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in wl.BUILDERS:
        for name, (unit, _) in run.END_TO_END.items():
            metric = result["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
            assert f"[{w}] {name} median=" in text and f" {unit} " in text
        assert f"[{w}] fail_ratio 0 ratio" in text
    assert "[sweep] probe_fail_ratio" in text


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    result, text = traced
    assert result["correct"]
    for w in wl.BUILDERS:
        for name, (unit, _) in run.PER_LAYER.items():
            assert result["metrics"][f"{w}.{name}"]["unit"] == unit
            assert f"[{w}] {name} " in text
    m = result["metrics"]
    assert m["sampling.measurement.strong_measure_calls"]["value"] == wl.SMOKE["born_trials"]
    assert m["oracle.ensemble.spin_oracle_calls"]["value"] == wl.SMOKE["brute_max"]
    assert m["oracle.twotime.ratio_oracle_calls"]["value"] == 3
    assert 0.1 < m["sampling.pointer.acceptance_ratio"]["value"] < 0.2
    assert m["sweep.cli.config_s"]["value"] > 0


def test_count_metrics_repeat_exactly(traced):
    again, _ = bench("--workload", "sampling", "--seed", "3", "--seconds", "1", "--trace", "1",
                     "--smoke")
    first = traced[0]["metrics"]
    for name, (unit, _) in run.PER_LAYER.items():
        if unit == "count":
            assert again["metrics"][name]["value"] == first[f"sampling.{name}"]["value"], name


def test_checker_accepts_real_output_and_rejects_corruption(tmp_path):
    born = tsvf(tmp_path, "--experiment", "born", "--seed", "7", "--param", "trials=4000")
    expect = {"alpha2": 0.36, "trials": 4000}
    assert checks.check_output("born", born, expect) == []

    # A frequency far outside its band, with rows and summary kept consistent.
    lines = born.split("\n")
    rows = [f"{i},1" if i < 3000 else f"{i},-1" for i in range(4000)]
    summary = lines[1].split(" ")
    summary = [f"frequency_plus={3000 / 4000!r}" if s.startswith("frequency_plus=") else s
               for s in summary]
    shifted = "\n".join([lines[0], " ".join(summary), lines[2], *rows, ""])
    assert any("outside alpha2" in p for p in checks.check_output("born", shifted, expect))

    dropped = "\n".join(lines[:-2] + [""])  # one trial fewer
    assert any("rows, expected trials" in p for p in checks.check_output("born", dropped, expect))

    weak = tsvf(tmp_path, "--experiment", "weakvalue", "--seed", "7", "--param", "trials=20000")
    wexpect = {"g_over_sigma": 0.01, "sigma": 1.0, "trials": 20000}
    assert checks.check_output("weakvalue", weak, wexpect) == []
    wlines = weak.split("\n")
    wlines[5] = wlines[5].split(",")[0] + ",nan"
    assert checks.check_output("weakvalue", "\n".join(wlines), wexpect) == ["output contains NaN"]

    assert checks.check_output("born", born, {"alpha2": 0.36, "trials": 5000})


def test_layer_self_time_subtracts_the_union_of_children():
    doc = {"names": ["experiments.compute", "ensemble.spin_oracle"], "spans": [
        [0, 0.0, 10.0, -1, 1, None],
        [1, 1.0, 6.0, 0, 2, {"n": 9, "peak_alloc_bytes": 2 ** 20}],
        [1, 2.0, 8.0, 0, 3, {"n": 10, "peak_alloc_bytes": 3 * 2 ** 20}],  # overlaps the first
    ]}
    m = run.layer_metrics([doc])
    assert m["experiments.compute_self_s"] == pytest.approx(10.0 - 7.0)
    assert m["ensemble.spin_oracle_s"] == pytest.approx(11.0)
    assert m["ensemble.spin_oracle_overlap"] == pytest.approx(1.1)
    assert m["ensemble.spin_oracle_s.n10"] == pytest.approx(6.0)
    assert m["ensemble.spin_oracle_peak_alloc_mb"] == pytest.approx(3.0)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workloads_are_a_function_of_the_seed():
    for build in wl.BUILDERS.values():
        a, b, c = build(5), build(5), build(6)
        assert [(i.ident, i.seed, i.params) for i in a] == [(i.ident, i.seed, i.params) for i in b]
        assert [i.seed for i in a] != [i.seed for i in c]
    sweep = wl.sweep(5)
    assert len(sweep) == 16
    assert sum(i.via_config for i in sweep) == 8
    assert sum(bool(i.malformed) for i in sweep) == 2
