"""Tests for the command-line experiment runner and its CSV contract."""

import json
import math
import os
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsvf_sim
from tsvf_sim.cli import BLAS_THREAD_VARS, main
from tsvf_sim.experiments import EXPERIMENTS, resolve_params
from tsvf_sim.twotime import core_decay


def run_cli(*args):
    return main(list(args))


def _child_env(**blas_threads):
    """Environment for a child interpreter that imports this tsvf_sim.

    The BLAS thread variables are only those given, not this process's.
    """
    path = [str(Path(tsvf_sim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, path)), **blas_threads)


def test_module_form_writes_csv(tmp_path):
    out = tmp_path / "c.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tsvf_sim.cli", "run", "--experiment", "commutator",
         "--param", "brute_max=3", "--out", str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("# meta experiment=commutator")


THREAD_COUNT = (
    "import os, sys\n"
    "from tsvf_sim.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(len(os.listdir('/proc/self/task')))\n"
)


# OpenBLAS never starts more threads than the CPUs this process may run on.
@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and at least 2 CPUs")
@pytest.mark.parametrize(("user_set", "threads"), [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"GOTO_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
], ids=["default", "openblas", "goto", "omp"])
def test_cli_run_uses_one_blas_thread_unless_the_user_sets_a_count(tmp_path, user_set, threads):
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_COUNT, "run", "--experiment", "born",
         "--param", "trials=10", "--out", str(tmp_path / "b.csv")],
        env=_child_env(**user_set), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(threads)


# Calls main in process and reports the BLAS thread variables its runner saw
# and whether os.environ afterwards equals os.environ before.
ENVIRON_AROUND_MAIN = (
    "import dataclasses, json, os, sys\n"
    "from tsvf_sim.cli import BLAS_THREAD_VARS, main\n"
    "from tsvf_sim.experiments import EXPERIMENTS\n"
    "argv = json.loads(sys.argv[1])\n"
    "exp = EXPERIMENTS[argv[2]]\n"
    "seen = []\n"
    "def runner(params, seed):\n"
    "    seen.append({var: os.environ.get(var) for var in BLAS_THREAD_VARS})\n"
    "    return exp.runner(params, seed)\n"
    "EXPERIMENTS[exp.name] = dataclasses.replace(exp, runner=runner)\n"
    "before = dict(os.environ)\n"
    "code = main(argv)\n"
    "print(json.dumps([code, seen, dict(os.environ) == before]))\n"
)


@pytest.mark.parametrize(("user_set", "params", "exit_code"), [
    ({}, ["trials=10"], 0),
    ({}, ["trials=0"], 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["trials=10"], 0),
    ({"GOTO_NUM_THREADS": "3"}, ["trials=10"], 0),
    ({"OMP_NUM_THREADS": "3"}, ["trials=0"], 2),
], ids=["numpy-run", "exit-2", "user-openblas", "user-goto", "user-omp-exit-2"])
def test_main_sets_one_blas_thread_only_for_its_runner(tmp_path, user_set, params, exit_code):
    argv = ["run", "--experiment", "born", "--out", str(tmp_path / "b.csv")]
    for param in params:
        argv += ["--param", param]
    proc = subprocess.run([sys.executable, "-c", ENVIRON_AROUND_MAIN, json.dumps(argv)],
                          env=_child_env(**user_set), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, seen, unchanged = json.loads(proc.stdout.splitlines()[-1])
    expected = dict.fromkeys(BLAS_THREAD_VARS)
    expected.update(user_set or {"OPENBLAS_NUM_THREADS": "1"})
    assert (code, seen, unchanged) == (exit_code, [expected], True)


def test_list_names_every_experiment(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in ("born", "weakvalue", "convergence", "commutator",
                 "robustness", "threshold", "decay"):
        assert name in out


def test_born_csv_layout(tmp_path):
    out = tmp_path / "born.csv"
    code = run_cli("run", "--experiment", "born", "--seed", "7",
                   "--param", "alpha2=0.36", "--param", "trials=2000",
                   "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# meta experiment=born seed=7")
    assert "alpha2=0.36" in lines[0] and "trials=2000" in lines[0]
    assert lines[1].startswith("# summary ")
    assert lines[2] == "trial,outcome"
    assert len(lines) == 3 + 2000
    outcomes = {line.split(",")[1] for line in lines[3:]}
    assert outcomes <= {"1", "-1"}


def test_born_summary_frequency_within_binomial_band(tmp_path):
    out = tmp_path / "born.csv"
    run_cli("run", "--experiment", "born", "--seed", "11",
            "--param", "trials=20000", "--out", str(out))
    summary = out.read_text().splitlines()[1]
    fields = dict(kv.split("=") for kv in summary.removeprefix("# summary ").split())
    freq = float(fields["frequency_plus"])
    assert abs(freq - 0.36) < 3 * math.sqrt(0.36 * 0.64 / 20000)


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("run", "--experiment", "weakvalue", "--seed", "5",
            "--param", "trials=5000")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("run", "--experiment", "born", "--seed", "1",
            "--param", "trials=500", "--out", str(a))
    run_cli("run", "--experiment", "born", "--seed", "2",
            "--param", "trials=500", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_convergence_columns_and_slope(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli("run", "--experiment", "convergence", "--seed", "1",
                   "--param", "Ns=100,1000,10000,100000", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "N,residual"
    fields = dict(kv.split("=") for kv in lines[1].removeprefix("# summary ").split())
    assert abs(float(fields["slope"]) - (-0.5)) < 0.01


def test_unknown_experiment_exits_2(capsys):
    assert run_cli("run", "--experiment", "nope") == 2
    assert "nope" in capsys.readouterr().err


def test_unknown_param_exits_2_and_names_key(capsys):
    assert run_cli("run", "--experiment", "born", "--param", "bogus=1") == 2
    err = capsys.readouterr().err
    assert "bogus" in err


def test_malformed_param_value_exits_2(capsys):
    assert run_cli("run", "--experiment", "born", "--param", "trials=abc") == 2
    assert "trials" in capsys.readouterr().err


def test_param_without_equals_exits_2(capsys):
    assert run_cli("run", "--experiment", "born", "--param", "trials") == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_out_of_range_param_exits_2(capsys):
    assert run_cli("run", "--experiment", "born", "--param", "alpha2=1.5") == 2
    assert "alpha2" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,param", [
    ("weakvalue", "sigma=inf"),
    ("decay", "t_max=inf"),
    ("threshold", "targets=inf"),
    ("convergence", "Ns=1e400"),
    ("born", "trials=1e400"),
    ("decay", "n0=nan"),
])
def test_non_finite_param_exits_2(tmp_path, capsys, experiment, param):
    out = tmp_path / "out.csv"
    assert run_cli("run", "--experiment", experiment, "--param", param,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("tsvf-sim: error:") and "not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment,param,key", [
    ("born", "trials=100000000", "trials"),
    ("born", "trials=1e300", "trials"),
    ("weakvalue", "trials=100000000", "trials"),
    ("weakvalue", "trials=1e300", "trials"),
    ("decay", "steps=100000000", "steps"),
    ("decay", "steps=1e300", "steps"),
    ("weakvalue", "sigma=1e-300", "sigma"),
    ("weakvalue", "sigma=1e300", "sigma"),
    ("weakvalue", "g_over_sigma=1e200", "g_over_sigma"),
    ("convergence", "Ns=5,5", "Ns"),
    ("convergence", "Ns=1,1" + "0" * 400, "Ns"),
    # Distinct ints whose fitted x values (log10 of the float, the float) are equal.
    ("convergence", "Ns=100000000000000000000,100000000000000000001", "Ns"),
    ("convergence", "Ns=1000000000000000,1000000000000001", "Ns"),
    ("robustness", "env_sizes=100000000000000000000,100000000000000000001", "env_sizes"),
    ("robustness", "env_sizes=8,8", "env_sizes"),
    ("robustness", "env_sizes=8,1e300", "env_size"),
    ("weakvalue", "g_over_sigma=1e-300 sigma=1e-100", "g_over_sigma"),
])
def test_value_outside_limits_exits_2_before_any_work(tmp_path, capsys, experiment, param, key):
    out = tmp_path / "out.csv"
    flags = [arg for p in param.split() for arg in ("--param", p)]
    assert run_cli("run", "--experiment", experiment, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("tsvf-sim: error:") and key in err
    assert not out.exists()


def test_convergence_accepts_sizes_beyond_int64(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("run", "--experiment", "convergence",
                   "--param", "Ns=1,100000000000000000000", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert [int(r[0]) for r in rows] == [1, 10 ** 20]


def test_robustness_writes_record_sizes_beyond_int64_exactly(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("run", "--experiment", "robustness", "--param",
                   "env_sizes=20,99999999999999999999999999999", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert [r[0] for r in rows] == ["20", "99999999999999999999999999999"]


def test_robustness_accepts_its_documented_limit_1e100(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli("run", "--experiment", "robustness", "--param",
                   "env_sizes=13,1e100", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert [int(r[0]) for r in rows] == [13, int(1e100)]
    capsys.readouterr()
    assert run_cli("run", "--experiment", "robustness", "--param",
                   f"env_sizes=13,{int(1e100) + 1}", "--out", str(out)) == 2
    assert "every env_size must be at most 1e100" in capsys.readouterr().err


def test_closed_form_run_never_imports_numpy_random(tmp_path):
    out = tmp_path / "d.csv"
    script = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules: sys.exit(9)  # imported eagerly by numpy\n"
        "from tsvf_sim.cli import main\n"
        f"assert main(['run', '--experiment', 'decay', '--out', {str(out)!r}]) == 0\n"
        "sys.exit(int('numpy.random' in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 9:
        pytest.skip("this numpy imports numpy.random with numpy")
    assert proc.returncode == 0, proc.stderr


def test_missing_experiment_exits_2(capsys):
    assert run_cli("run") == 2
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "2.5", "xyz"])
def test_invalid_seed_exits_2(seed):
    assert run_cli("run", "--experiment", "decay", "--seed", seed) == 2


def test_seed_defaults_to_zero(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("run", "--experiment", "decay", "--out", str(out))
    assert "seed=0" in out.read_text().splitlines()[0]


def test_config_file_supplies_everything(tmp_path):
    out = tmp_path / "born.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# a comment line\n"
        "experiment = born\n"
        "seed = 9\n"
        "trials = 1000\n"
        f"out = {out}\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 0
    meta = out.read_text().splitlines()[0]
    assert "experiment=born" in meta and "seed=9" in meta and "trials=1000" in meta


def test_flags_override_config_file(tmp_path):
    out = tmp_path / "born.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = born\nseed = 9\ntrials = 1000\n")
    assert run_cli("run", "--config", str(cfg), "--seed", "4",
                   "--param", "trials=600", "--out", str(out)) == 0
    meta = out.read_text().splitlines()[0]
    assert "seed=4" in meta and "trials=600" in meta


def test_config_file_bad_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment born\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "key=value" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "absent.cfg")) == 2


def test_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub.csv"  # parent is a regular file
    code = run_cli("run", "--experiment", "decay", "--out", str(out))
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_runtime_failure_exits_3(capsys):
    # post_angle = pi/4 makes the backward state orthogonal to |+>
    code = run_cli("run", "--experiment", "weakvalue",
                   "--param", f"post_angle={math.pi / 4}",
                   "--param", "trials=10")
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_commutator_rows_ordered_by_spin_count(tmp_path):
    out = tmp_path / "k.csv"
    run_cli("run", "--experiment", "commutator", "--param", "brute_max=5",
            "--param", "closed_Ns=1000000", "--out", str(out))
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    brute = [r for r in rows if r[1] == "brute"]
    assert [int(r[0]) for r in brute] == [1, 2, 3, 4, 5]
    closed = [r for r in rows if r[1] == "closed"]
    assert np.isclose(float(closed[0][2]), 5e-7)


def test_robustness_csv_brute_column(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("run", "--experiment", "robustness", "--seed", "3",
                   "--param", "env_sizes=8,10,12", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "env_size,n_collapsed,log_ratio,ratio,brute_ratio"
    first = lines[3].split(",")
    assert np.isclose(float(first[3]), float(first[4]), rtol=1e-9)


def test_robustness_huge_record_skips_oracle_quickly(tmp_path):
    out = tmp_path / "r.csv"
    start = time.perf_counter()
    assert run_cli("run", "--experiment", "robustness",
                   "--param", "env_sizes=8,1000000000", "--out", str(out)) == 0
    assert time.perf_counter() - start < 1.0
    last = out.read_text().splitlines()[-1].split(",")
    assert last[0] == "1000000000" and last[3] == "inf" and last[4] == ""


def test_robustness_env_sizes_must_exceed_n(capsys):
    assert run_cli("run", "--experiment", "robustness",
                   "--param", "n=5", "--param", "env_sizes=4,8") == 2
    assert "env_size" in capsys.readouterr().err


def test_threshold_experiment_brackets(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("run", "--experiment", "threshold", "--out", str(out)) == 0
    for line in out.read_text().splitlines()[3:]:
        target, size, at, below = line.split(",")
        assert float(at) >= float(target)
        if below:
            assert float(below) < float(target)


@pytest.mark.parametrize("params", [
    ("n=1000000",),
    ("n=1000000", "c=0.999999999999999", "gamma1=0.5", "gamma2=0.95"),
])
def test_threshold_huge_collapse_finishes_quickly(tmp_path, params):
    out = tmp_path / "t.csv"
    flags = [arg for p in params for arg in ("--param", p)]
    start = time.perf_counter()
    assert run_cli("run", "--experiment", "threshold", *flags, "--out", str(out)) == 0
    assert time.perf_counter() - start < 2.0


def test_decay_rows_match_closed_form(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("run", "--experiment", "decay", "--param", "n0=1000",
            "--param", "time_constant=2.0", "--param", "t_max=4.0",
            "--param", "steps=5", "--out", str(out))
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert len(rows) == 5
    for t_str, remaining_str in rows:
        assert np.isclose(float(remaining_str),
                          1000 * math.exp(-float(t_str) / 2.0), atol=1e-9)


@pytest.mark.parametrize("overrides", [
    {"steps": "200003"},
    {"t_max": "1e300"},
    {"t_max": "5e-324", "steps": "3"},  # the step underflows to 0
    {"n0": "0"},
], ids=["many-steps", "huge-t_max", "step-underflows", "n0-zero"])
def test_decay_remaining_equals_core_decay_loop(overrides):
    exp = EXPERIMENTS["decay"]
    params = resolve_params(exp, overrides)
    times, remaining = exp.runner(params, 0).columns
    expected = array("d", [core_decay(params["n0"], params["time_constant"], t) for t in times])
    assert remaining.tobytes() == expected.tobytes()


EDGE_T_MAX = [0.0, -0.0, 5e-324, 1e-310, 1.7976931348623157e308]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    t_max=st.one_of(st.sampled_from(EDGE_T_MAX),
                    st.floats(min_value=0.0, max_value=1.7976931348623157e308)),
    steps=st.integers(min_value=2, max_value=5000),
)
@example(t_max=5e-324, steps=2)
@example(t_max=5e-324, steps=5000)
@example(t_max=-0.0, steps=3)
@example(t_max=1.7976931348623157e308, steps=5000)
@example(t_max=1.7976931348623157e308, steps=25)
def test_decay_times_equal_linspace_bit_for_bit(t_max, steps):
    exp = EXPERIMENTS["decay"]
    params = resolve_params(exp, {"t_max": repr(t_max), "steps": str(steps)})
    times = exp.runner(params, 0).columns[0]
    # linspace computes its last point as (steps - 1) * step, which may
    # overflow, before it overwrites that point with t_max itself.
    with np.errstate(over="ignore"):
        expected = np.linspace(0.0, t_max, steps)
    assert times.tobytes() == expected.tobytes()


def test_every_experiment_has_schema_defaults():
    for exp in EXPERIMENTS.values():
        names = [p.name for p in exp.params]
        assert len(names) == len(set(names))
        for p in exp.params:
            assert p.kind in ("int", "float", "int_list", "float_list")
