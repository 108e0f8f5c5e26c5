"""Tests for the command-line experiment runner and its CSV contract."""

import dataclasses
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsvf_sim.cli import main
from tsvf_sim.errors import ConfigError, InvariantError
from tsvf_sim.experiments import BLAS_THREAD_VARS, EXPERIMENTS, MAX_ENV_SIZE, resolve_params
from tsvf_sim.pointer import ReadoutDensity
from tsvf_sim.twotime import RobustnessModel, classical_threshold, core_decay
from helpers import child_env, child_peak_rss_mib, result_columns, run_child


def run_cli(*args):
    return main(list(args))


def test_module_form_writes_csv(tmp_path):
    out = tmp_path / "c.csv"
    proc = run_child(["-m", "tsvf_sim.cli", "run", "--experiment", "commutator",
                      "--param", "brute_max=3", "--out", str(out)])
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
    proc = run_child(["-c", THREAD_COUNT, "run", "--experiment", "weakvalue",
                      "--param", "trials=100", "--out", str(tmp_path / "w.csv")], **user_set)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(threads)


# Calls main in process and reports the BLAS thread variables set as numpy
# starts to load, once per load, and whether os.environ afterwards equals
# os.environ before. The finder only looks: it finds nothing, so the normal
# finders load numpy.
ENVIRON_AT_NUMPY_LOAD = (
    "import json, os, sys\n"
    "from tsvf_sim.cli import main\n"
    "from tsvf_sim.experiments import BLAS_THREAD_VARS\n"
    "seen = []\n"
    "class NumpyLoad:\n"
    "    @staticmethod\n"
    "    def find_spec(name, path=None, target=None):\n"
    "        if name == 'numpy':\n"
    "            seen.append({var: os.environ.get(var) for var in BLAS_THREAD_VARS})\n"
    "sys.meta_path.insert(0, NumpyLoad)\n"
    "before = dict(os.environ)\n"
    "code = main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, seen, dict(os.environ) == before]))\n"
)


# The exit-2 runs fail inside the runner, before it loads numpy: g =
# g_over_sigma * sigma underflows.
RUNNER_REJECTS = ["weakvalue", ["g_over_sigma=1e-300", "sigma=1e-100"]]


@pytest.mark.parametrize(("user_set", "experiment", "params", "exit_code"), [
    ({}, "weakvalue", ["trials=100"], 0),
    ({}, *RUNNER_REJECTS, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, "weakvalue", ["trials=100"], 0),
    ({"GOTO_NUM_THREADS": "3"}, "weakvalue", ["trials=100"], 0),
    ({"OMP_NUM_THREADS": "3"}, *RUNNER_REJECTS, 2),
], ids=["numpy-run", "exit-2", "user-openblas", "user-goto", "user-omp-exit-2"])
def test_main_sets_one_blas_thread_only_while_numpy_loads(tmp_path, user_set, experiment,
                                                          params, exit_code):
    argv = ["run", "--experiment", experiment, "--out", str(tmp_path / "b.csv")]
    for param in params:
        argv += ["--param", param]
    proc = run_child(["-c", ENVIRON_AT_NUMPY_LOAD, json.dumps(argv)], **user_set)
    assert proc.returncode == 0, proc.stderr
    code, seen, unchanged = json.loads(proc.stdout.splitlines()[-1])
    expected = dict.fromkeys(BLAS_THREAD_VARS)
    expected.update(user_set or {"OPENBLAS_NUM_THREADS": "1"})
    assert (code, seen, unchanged) == (exit_code, [expected] if exit_code == 0 else [], True)


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


def test_weakvalue_summary_matches_its_own_readings(tmp_path):
    # sigma != 1, so g = g_over_sigma * sigma differs from g_over_sigma.
    out = tmp_path / "weak.csv"
    trials, sigma, ratio = 5000, 0.25, 0.5
    assert run_cli("run", "--experiment", "weakvalue", "--seed", "3",
                   "--param", f"sigma={sigma}", "--param", f"g_over_sigma={ratio}",
                   "--param", f"trials={trials}", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    fields = dict(kv.split("=") for kv in lines[1].removeprefix("# summary ").split())
    readings = np.array([float(line.split(",")[1]) for line in lines[3:]])
    g = ratio * sigma
    assert readings.size > 1
    assert int(fields["accepted"]) == readings.size
    assert float(fields["acceptance_rate"]) == readings.size / trials
    assert float(fields["mean_over_g"]) == pytest.approx(readings.mean() / g, rel=1e-12)
    stderr = readings.std(ddof=1) / math.sqrt(readings.size)
    assert float(fields["stderr_over_g"]) == pytest.approx(stderr / g, rel=1e-12)


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
    assert "parameter 'env_sizes' must lie in [1, 1e+100]" in capsys.readouterr().err


def test_closed_form_run_never_imports_numpy_random(tmp_path):
    out = tmp_path / "d.csv"
    script = (
        "import sys, numpy\n"
        "if 'numpy.random' in sys.modules: sys.exit(9)  # imported eagerly by numpy\n"
        "from tsvf_sim.cli import main\n"
        f"assert main(['run', '--experiment', 'decay', '--out', {str(out)!r}]) == 0\n"
        "sys.exit(int('numpy.random' in sys.modules))\n"
    )
    proc = run_child(["-c", script])
    if proc.returncode == 9:
        pytest.skip("this numpy imports numpy.random with numpy")
    assert proc.returncode == 0, proc.stderr


def test_missing_experiment_exits_2(capsys):
    assert run_cli("run") == 2
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "2.5", "xyz"])
def test_invalid_seed_exits_2(seed):
    assert run_cli("run", "--experiment", "decay", "--seed", seed) == 2


@pytest.mark.parametrize(("seed", "kept"), [
    ("1e3", "1000"), ("12.0", "12"), ("18446744073709551615", "18446744073709551615"),
])
def test_seed_is_parsed_like_an_int_parameter(tmp_path, seed, kept):
    out = tmp_path / "d.csv"
    assert run_cli("run", "--experiment", "decay", "--seed", seed, "--out", str(out)) == 0
    assert f" seed={kept} " in out.read_text().splitlines()[0]


def test_invalid_seed_in_a_config_file_exits_2(tmp_path, capsys):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "d.csv"
    cfg.write_text("experiment = decay\nseed = 12.5\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("tsvf-sim: error: parameter 'seed'")
    assert not out.exists()


# Runs main and reports its exit code and whether numpy was loaded.
MAIN_AND_NUMPY = (
    "import json, sys\n"
    "from tsvf_sim.cli import main\n"
    "print(json.dumps([main(sys.argv[1:]), 'numpy' in sys.modules]))\n"
)


@pytest.mark.parametrize(("config", "flags"), [
    ("experiment = decay\n", ["--out", ""]),
    ("experiment = weakvalue\n", ["--out", ""]),
    ("experiment = weakvalue\nout =\n", []),
], ids=["decay-flag", "weakvalue-flag", "weakvalue-config"])
def test_empty_output_path_exits_2_before_the_runner(tmp_path, monkeypatch, config, flags):
    # weakvalue loads numpy in its runner, so a child without numpy never started it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(config)
    proc = run_child(["-c", MAIN_AND_NUMPY, "run", "--config", "exp.cfg", *flags])
    assert json.loads(proc.stdout) == [2, False]
    assert proc.stderr.startswith("tsvf-sim: error: the output path is empty")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


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


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out.csv"
    cfg.write_bytes(b"experiment = decay\n\xff\xfe = 1\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub.csv"  # parent is a regular file
    code = run_cli("run", "--experiment", "decay", "--out", str(out))
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_output_that_is_a_directory_exits_3_and_leaves_no_temporary_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert run_cli("run", "--experiment", "decay", "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith(f"tsvf-sim: cannot write {out}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"] and not any(out.iterdir())


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_render_failure_exits_3_and_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys,
                                                                 existing):
    out = tmp_path / "d.csv"
    if existing:
        out.write_text("old bytes\n")
    decay = EXPERIMENTS["decay"]

    def runner(params, seed):
        result = decay.runner(params, seed)

        def chunks(size):
            yield next(result.chunks(size))
            raise RuntimeError("render failed")

        return dataclasses.replace(result, chunks=chunks)

    monkeypatch.setitem(EXPERIMENTS, "decay", dataclasses.replace(decay, runner=runner))
    code = run_cli("run", "--experiment", "decay", "--param", "steps=10000", "--out", str(out))
    assert code == 3
    assert capsys.readouterr().err == "tsvf-sim: runtime error: render failed\n"
    assert [p.name for p in tmp_path.iterdir()] == (["d.csv"] if existing else [])
    assert not existing or out.read_text() == "old bytes\n"


def test_an_oserror_of_the_runner_is_a_runtime_error_not_a_failed_write(tmp_path, monkeypatch,
                                                                         capsys):
    def runner(params, seed):
        raise FileNotFoundError(2, "No such file or directory", "table.dat")

    monkeypatch.setitem(EXPERIMENTS, "decay", dataclasses.replace(EXPERIMENTS["decay"],
                                                                  runner=runner))
    assert run_cli("run", "--experiment", "decay", "--out", str(tmp_path / "d.csv")) == 3
    assert capsys.readouterr().err == (
        "tsvf-sim: runtime error: [Errno 2] No such file or directory: 'table.dat'\n")
    assert not any(tmp_path.iterdir())


def test_csv_replaces_the_output_as_open_for_writing_would(tmp_path):
    # A new file gets 0o666 less the umask, an existing one keeps its mode,
    # and a symbolic link is followed.
    new, old, link = tmp_path / "new.csv", tmp_path / "old.csv", tmp_path / "link.csv"
    old.write_text("old bytes\n")
    old.chmod(0o640)
    link.symlink_to(old.name)
    for out in (new, link):
        assert run_cli("run", "--experiment", "decay", "--out", str(out)) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert new.stat().st_mode & 0o7777 == 0o666 & ~umask
    assert old.stat().st_mode & 0o7777 == 0o640
    assert link.is_symlink() and old.read_bytes() == new.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "new.csv", "old.csv"]


def test_csv_is_written_into_a_fifo_which_stays_a_fifo(tmp_path):
    # A FIFO cannot be replaced by a file: its reader would get nothing.
    out = tmp_path / "pipe.csv"
    os.mkfifo(out)
    got = []
    reader = threading.Thread(target=lambda: got.append(out.read_bytes()), daemon=True)
    reader.start()
    code = run_cli("run", "--experiment", "decay", "--out", str(out))
    reader.join(timeout=60)
    assert code == 0 and not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(out).st_mode)
    assert got[0].startswith(b"# meta experiment=decay ")
    assert [p.name for p in tmp_path.iterdir()] == ["pipe.csv"]


def test_csv_written_to_a_hard_link_reaches_every_name(tmp_path):
    out, other = tmp_path / "d.csv", tmp_path / "other.csv"
    out.write_text("old bytes\n")
    os.link(out, other)
    inode = out.stat().st_ino
    assert run_cli("run", "--experiment", "decay", "--out", str(out)) == 0
    assert out.stat().st_ino == inode and out.stat().st_nlink == 2
    assert other.read_text().startswith("# meta experiment=decay ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "other.csv"]


def test_a_read_only_output_is_written_in_place_not_replaced(tmp_path, monkeypatch, capsys):
    # open(out, "w") fails on a file its user may not write, where renaming a
    # new file over it would not. Root may write any file, so os.access is
    # stubbed to answer for out as it does for any other user.
    out = tmp_path / "d.csv"
    out.write_text("old bytes\n")
    out.chmod(0o444)
    inode = out.stat().st_ino
    access = os.access
    writable = access(out, os.W_OK)
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: access(path, mode, **kw) and not (
        os.fspath(path) == str(out) and mode & os.W_OK))
    code = run_cli("run", "--experiment", "decay", "--out", str(out))
    assert out.stat().st_ino == inode and out.stat().st_mode & 0o7777 == 0o444
    if writable:
        assert code == 0 and out.read_text().startswith("# meta experiment=decay ")
    else:
        assert code == 3 and out.read_text() == "old bytes\n"
        assert capsys.readouterr().err.startswith(f"tsvf-sim: cannot write {out}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                    reason="only root may give a file to another user")
@pytest.mark.parametrize("other", ["owner", "group"])
def test_a_foreign_owned_output_is_written_in_place_and_keeps_its_owner(tmp_path, other):
    # A new file beside it would belong to root, so renaming it over the
    # output would hand the output to root.
    out = tmp_path / "d.csv"
    out.write_text("old bytes\n")
    st = out.stat()
    owner = (65534, st.st_gid) if other == "owner" else (st.st_uid, 65534)
    os.chown(out, *owner)
    assert run_cli("run", "--experiment", "decay", "--out", str(out)) == 0
    assert out.stat().st_ino == st.st_ino and (out.stat().st_uid, out.stat().st_gid) == owner
    assert out.read_text().startswith("# meta experiment=decay ")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def _command(args: list[str], unbuffered: bool, **streams) -> subprocess.CompletedProcess:
    """Run the `tsvf-sim` command in a fresh interpreter with the given standard streams.

    Its stdout and stderr are block buffered, as in a shell, or unbuffered, as
    with `python -u`: a failed write then fails in the print, not in a flush.
    """
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    flags = ["-u"] if unbuffered else []
    return subprocess.run([sys.executable, *flags, "-m", "tsvf_sim.cli", *args], env=env,
                          timeout=60, **streams)


def _unwritable(stream: str):
    """A file object whose every write fails: /dev/full, or a pipe whose reader has gone."""
    if stream == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        return open("/dev/full", "wb")
    reader, writer = os.pipe()
    os.close(reader)
    return open(writer, "wb")


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
STRERROR = {"closed-pipe": "Broken pipe", "dev-full": "No space left on device"}


@BUFFERING
@pytest.mark.parametrize("command", ["run", "list"])
@pytest.mark.parametrize("stdout", STRERROR)
def test_a_failed_status_line_exits_3_and_keeps_the_csv(tmp_path, stdout, command, unbuffered):
    out = tmp_path / "d.csv"
    args = ["run", "--experiment", "decay", "--out", str(out)] if command == "run" else ["list"]
    with _unwritable(stdout) as unwritable:
        proc = _command(args, unbuffered, stdout=unwritable, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        3, f"tsvf-sim: cannot write standard output: {STRERROR[stdout]}\n")
    if command == "run":
        assert run_cli("run", "--experiment", "decay", "--out", str(tmp_path / "ref.csv")) == 0
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == (["d.csv", "ref.csv"] if command == "run"
                                                          else [])


@BUFFERING
@pytest.mark.parametrize(("experiment", "code"), [("nope", 2), ("decay", 3)])
def test_a_full_stderr_keeps_the_exit_code(tmp_path, experiment, code, unbuffered):
    # decay writes its CSV, then neither its status line nor its error line can be written.
    out = tmp_path / "d.csv"
    with _unwritable("dev-full") as full:
        proc = _command(["run", "--experiment", experiment, "--out", str(out)], unbuffered,
                        stdout=full, stderr=full)
    assert proc.returncode == code
    assert [p.name for p in tmp_path.iterdir()] == (["d.csv"] if code == 3 else [])


def _signal_while_writing(out, signum: int, **popen) -> subprocess.CompletedProcess:
    """Start `tsvf-sim run` of a 3e6-step decay into `out`, send it `signum`
    once its temporary file appears, and give the finished process."""
    proc = subprocess.Popen([sys.executable, "-m", "tsvf_sim.cli", "run", "--experiment", "decay",
                             "--param", "steps=3000000", "--out", str(out)], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen)
    deadline = time.monotonic() + 60
    while not any(out.parent.glob(f".{out.name}.*.tmp")):  # the run is writing its CSV
        assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
        time.sleep(0.005)
    proc.send_signal(signum)
    stdout, stderr = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT],
                         ids=["SIGTERM", "SIGHUP", "SIGINT"])
def test_a_stop_signal_exits_128_plus_its_number_and_leaves_the_output_as_it_was(tmp_path,
                                                                                  signum):
    out = tmp_path / "d.csv"
    out.write_text("old bytes\n")
    # A background job inherits SIGINT ignored, and the command keeps it so; not here.
    proc = _signal_while_writing(out, signum,
                                 preexec_fn=lambda: signal.signal(signum, signal.SIG_DFL))
    assert (proc.stdout, proc.stderr) == ("", "")
    assert proc.returncode == 128 + signum
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    assert out.read_text() == "old bytes\n"


def test_a_sighup_ignored_from_the_start_stays_ignored(tmp_path):
    # As under nohup: closing the terminal must not end the run.
    out = tmp_path / "d.csv"
    proc = _signal_while_writing(
        out, signal.SIGHUP, preexec_fn=lambda: signal.signal(signal.SIGHUP, signal.SIG_IGN))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"wrote {out}\nsummary: ")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    with out.open() as f:  # the meta, summary and header lines, then one row per step
        assert sum(1 for _ in f) == 3 + 3000000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_streamed_runs_peak_the_same_at_ten_thousand_and_a_million_rows(tmp_path):
    # born and decay make and write their rows a chunk at a time, so a
    # hundred times more rows may not raise a run's peak RSS.
    peaks = child_peak_rss_mib({
        (name, rows): ["run", "--experiment", name, "--param", f"{key}={rows}",
                       "--out", str(tmp_path / f"{name}-{rows}.csv")]
        for name, key in (("born", "trials"), ("decay", "steps"))
        for rows in (10 ** 4, 10 ** 6)
    })
    for name in ("born", "decay"):
        assert abs(peaks[name, 10 ** 6] - peaks[name, 10 ** 4]) < 2.0, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_born_peaks_with_a_run_that_loads_no_numpy(tmp_path):
    # born draws from the standard library's random and holds one block of
    # bytes, so at defaults it peaks within a page or two of a convergence run.
    peaks = child_peak_rss_mib({
        name: ["run", "--experiment", name, "--out", str(tmp_path / f"{name}.csv")]
        for name in ("born", "convergence")
    })
    assert abs(peaks["born"] - peaks["convergence"]) < 1.0, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_robustness_oracle_peaks_with_a_run_that_has_none(tmp_path):
    # The two-time oracle holds two real record vectors of 2^N doubles, so at
    # N = 12 a robustness run peaks within a few pages of a convergence run,
    # which loads no oracle.
    peaks = child_peak_rss_mib({
        name: ["run", "--experiment", name, *params, "--out", str(tmp_path / f"{name}.csv")]
        for name, params in (("robustness", ["--param", "env_sizes=8,10,12", "--param", "n=3"]),
                             ("convergence", []))
    })
    assert abs(peaks["robustness"] - peaks["convergence"]) < 0.75, peaks


def test_runtime_failure_exits_3(tmp_path, capsys):
    # A valid configuration whose one trial fails post-selection (NoAcceptedTrials).
    out = tmp_path / "w.csv"
    code = run_cli("run", "--experiment", "weakvalue", "--seed", "2",
                   "--param", "trials=1", "--param", "post_angle=0", "--out", str(out))
    assert code == 3
    assert "runtime error: 0 of 1 trials passed post-selection" in capsys.readouterr().err
    assert not out.exists()


def test_orthogonal_pre_and_post_states_exit_2(tmp_path, capsys):
    # post_angle = pi/4 makes the backward state orthogonal to |+>: no weak value exists.
    out = tmp_path / "w.csv"
    code = run_cli("run", "--experiment", "weakvalue", "--param", f"post_angle={math.pi / 4}",
                   "--param", "trials=10", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith("tsvf-sim: error: |overlap| = ")
    assert not out.exists()


def test_plain_value_error_from_a_defect_exits_3(monkeypatch, capsys):
    # Only a ConfigError means bad input; a plain ValueError is a defect.
    def runner(params, seed):
        return math.sqrt(-1.0)

    monkeypatch.setitem(EXPERIMENTS, "decay", dataclasses.replace(EXPERIMENTS["decay"],
                                                                  runner=runner))
    assert run_cli("run", "--experiment", "decay") == 3
    assert "runtime error: math domain error" in capsys.readouterr().err


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
    times, remaining = (array("d", column) for column in result_columns(exp.runner(params, 0)))
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
    times = array("d", result_columns(exp.runner(params, 0))[0])
    # linspace computes its last point as (steps - 1) * step, which may
    # overflow, before it overwrites that point with t_max itself.
    with np.errstate(over="ignore"):
        expected = np.linspace(0.0, t_max, steps)
    assert times.tobytes() == expected.tobytes()


def _outside(spec, bound, direction):
    """The first value of spec's kind beyond `bound` in `direction` (+1 or -1)."""
    if spec.kind.startswith("int"):
        return str(int(bound) + direction)
    return repr(math.nextafter(bound, direction * math.inf))


BOUNDS = [
    pytest.param(exp, spec, bound, direction, id=f"{exp.name}-{spec.name}-{side}")
    for exp in EXPERIMENTS.values()
    for spec in exp.params
    for bound, direction, side in ((spec.low, -1, "low"), (spec.high, 1, "high"))
    if math.isfinite(bound)
]


@pytest.mark.parametrize(("exp", "spec", "bound", "direction"), BOUNDS)
def test_each_declared_bound_is_inclusive_and_the_next_value_is_rejected(
        exp, spec, bound, direction):
    edge = str(int(bound)) if spec.kind.startswith("int") else repr(bound)
    value = resolve_params(exp, {spec.name: edge})[spec.name]
    assert value == ([bound] if spec.kind.endswith("_list") else bound)
    with pytest.raises(ConfigError, match=f"parameter '{spec.name}' must lie in"):
        resolve_params(exp, {spec.name: _outside(spec, bound, direction)})


def _model(**fields):
    return RobustnessModel(**{"alpha": 1.0, "beta": 0.0, "env_size": 8, "overlap": 0.9,
                              "n_collapsed": 0, "gamma1": 0.9, "gamma2": 0.9, **fields})


# Each parameter whose domain a library check also guards, with that check as
# a call on one value. MAX_ENV_SIZE is a cap of the run alone.
LIBRARY_CHECKED = [
    ("weakvalue", "sigma", lambda v: ReadoutDensity(means=[0.0], weights=[1.0], sigma=v)),
    *((experiment, name, check) for experiment in ("robustness", "threshold")
      for name, check in [("c", lambda v: _model(overlap=v)),
                          ("n", lambda v: _model(n_collapsed=v)),
                          ("gamma1", lambda v: _model(gamma1=v)),
                          ("gamma2", lambda v: _model(gamma2=v))]),
    ("robustness", "env_sizes", lambda v: _model(env_size=v)),
    ("threshold", "targets", lambda v: classical_threshold(0, 0.9, 1.0, 0.0, v)),
    ("decay", "n0", lambda v: core_decay(v, 1.0, 1.0)),
    ("decay", "time_constant", lambda v: core_decay(1.0, v, 1.0)),
    ("decay", "t_max", lambda v: core_decay(1.0, 1.0, v)),
]


@pytest.mark.parametrize(("experiment", "name", "check"), LIBRARY_CHECKED,
                         ids=[f"{e}-{n}" for e, n, _ in LIBRARY_CHECKED])
def test_library_checks_the_same_bounds_as_the_parameter(experiment, name, check):
    spec = next(p for p in EXPERIMENTS[experiment].params if p.name == name)
    kind = int if spec.kind.startswith("int") else float
    bounds = [(bound, direction) for bound, direction in ((spec.low, -1), (spec.high, 1))
              if math.isfinite(bound) and bound != MAX_ENV_SIZE]
    assert bounds
    for bound, direction in bounds:
        check(kind(bound))
        with pytest.raises(InvariantError):
            check(kind(_outside(spec, bound, direction)))


def test_readme_limits_show_each_range_that_list_prints(capsys):
    assert run_cli("list") == 0
    ranges = re.findall(r"--param (\w+)=<\w+> in (\[.*?\])", capsys.readouterr().out)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    limits = readme.split("\n### Limits\n", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in limits.splitlines() if line.startswith("| `")]
    missing = [(name, text) for name, text in ranges
               if not any(f"`{name}`" in row and text in row for row in rows)]
    declared = [p for e in EXPERIMENTS.values() for p in e.params
                if math.isfinite(p.low) or math.isfinite(p.high)]
    assert len(ranges) == len(declared) and not missing


def test_every_default_lies_in_its_declared_range():
    for exp in EXPERIMENTS.values():
        for spec in exp.params:
            values = spec.default if spec.kind.endswith("_list") else [spec.default]
            assert all(spec.low <= v <= spec.high for v in values), (exp.name, spec.name)


def test_list_shows_each_declared_range(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    assert "--param trials=<int> in [1, 10000000]  (default 100000)" in out
    assert "--param post_angle=<float>  (default" in out


def test_every_experiment_has_schema_defaults():
    for exp in EXPERIMENTS.values():
        names = [p.name for p in exp.params]
        assert len(names) == len(set(names))
        for p in exp.params:
            assert p.kind in ("int", "float", "int_list", "float_list")
