"""Tests for what importing the package loads, and for its lazy exports.

Each check runs in a fresh interpreter, because this test process has long
since imported numpy and every submodule.
"""

import importlib
import json
import pkgutil

import pytest

import tsvf_sim
from tsvf_sim import errors, experiments
from helpers import run_child

MODULES = sorted(m.name for m in pkgutil.iter_modules(tsvf_sim.__path__))


def _child(script: str, *args: str) -> str:
    """Run `script` in a fresh interpreter that imports this tsvf_sim; return stdout."""
    proc = run_child(["-c", script, *args])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_resolves_in_a_fresh_interpreter():
    out = _child(
        "import tsvf_sim\n"
        "missing = [n for n in tsvf_sim.__all__ if getattr(tsvf_sim, n, None) is None]\n"
        "print(len(tsvf_sim.__all__), len(set(tsvf_sim.__all__)), missing)\n"
    )
    assert out.split(maxsplit=2) == ["30", "30", "[]\n"]


def test_errors_defines_one_class_per_outcome():
    # Rejected input (exit 2) and a run that post-selection leaves empty (exit 3).
    classes = {name: value.__bases__ for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert classes == {"ConfigError": (ValueError,), "InvariantError": (errors.ConfigError,),
                       "NoAcceptedTrials": (RuntimeError,)}


def test_star_import_binds_exactly_all():
    out = _child(
        "import tsvf_sim\n"
        "ns = {}\n"
        "exec('from tsvf_sim import *', ns)\n"
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(tsvf_sim.__all__))\n"
    )
    assert out == "True\n"


def test_every_submodule_is_an_attribute_of_the_package():
    assert {"branches", "cli", "experiments", "twotime"} <= set(MODULES)
    out = _child(
        "import sys, tsvf_sim\n"
        "for name in sys.argv[1:]:\n"
        "    assert getattr(tsvf_sim, name) is sys.modules['tsvf_sim.' + name], name\n",
        *MODULES,
    )
    assert out == ""


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tsvf_sim.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        experiments.no_such_name


@pytest.mark.parametrize("name", [
    "GaussianPointer", "random_state", "random_hermitian",
    "SIGMA_X", "SIGMA_Y", "basis_state", "identity", "full_state",
])
def test_test_only_helpers_are_not_in_the_package(name):
    # They live in tests/helpers.py, and full_state's reference in
    # tests/test_twotime.py; no submodule defines them either.
    with pytest.raises(AttributeError, match=name):
        getattr(tsvf_sim, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"tsvf_sim.{module}"), name), module


@pytest.mark.parametrize(("module", "name"), [
    ("measurement", "WeakEstimate"),
    ("measurement", "MeasurementRecord"),
    ("ensemble", "Decomposition"),
])
def test_return_types_import_from_their_submodule(module, name):
    assert name not in tsvf_sim.__all__
    cls = getattr(importlib.import_module(f"tsvf_sim.{module}"), name)
    assert isinstance(cls, type) and cls.__module__ == f"tsvf_sim.{module}"


def test_eigenbranches_have_no_class():
    # HermitianOperator hands its eigenbranches out as arrays.
    assert not hasattr(importlib.import_module("tsvf_sim.hilbert"), "EigenBranch")


RUN_AND_REPORT = (
    "import json, sys\n"
    "from tsvf_sim.cli import main\n"
    "code = main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, 'numpy' in sys.modules]))\n"
)

NUMPY_FREE_RUNS = [
    pytest.param(["list"], 0, id="list"),
    pytest.param(["run", "--experiment", "threshold"], 0, id="threshold-defaults"),
    pytest.param(["run", "--experiment", "decay"], 0, id="decay-defaults"),
    pytest.param(["run", "--experiment", "convergence"], 0, id="convergence-defaults"),
    pytest.param(["run", "--experiment", "convergence", "--param",
                  "Ns=1046,385514,2617291,9999999"], 0, id="convergence-sweep-like"),
    pytest.param(["run", "--experiment", "convergence", "--param",
                  "Ns=10,100000000000000000000"], 0, id="convergence-beyond-int64"),
    pytest.param(["run", "--experiment", "convergence", "--param", "no_such_param=1"], 2,
                 id="unknown-parameter"),
    pytest.param(["run", "--experiment", "robustness", "--param", "c=not-a-number"], 2,
                 id="unparseable-value"),
    pytest.param(["run", "--config", "{config}"], 2, id="config-line-without-equals"),
    pytest.param(["run", "--experiment", "decay_typo"], 2, id="unknown-experiment"),
    pytest.param(["run", "--experiment", "convergence", "--seed", "12.5"], 2,
                 id="seed-not-an-integer"),
    pytest.param(["run", "--experiment", "decay", "--param", "t_max=inf"], 2,
                 id="decay-t_max-inf"),
    # born draws from the standard library's random, at every weight.
    pytest.param(["run", "--experiment", "born"], 0, id="born-defaults"),
    pytest.param(["run", "--experiment", "born", "--param", "alpha2=0"], 0, id="born-alpha2-0"),
    pytest.param(["run", "--experiment", "born", "--param", "alpha2=1"], 0, id="born-alpha2-1"),
    # Range errors are found while parsing, also those of weakvalue, which uses numpy.
    pytest.param(["run", "--experiment", "born", "--param", "alpha2=2"], 2,
                 id="born-alpha2-out-of-range"),
    pytest.param(["run", "--experiment", "weakvalue", "--param", "sigma=1e300"], 2,
                 id="weakvalue-sigma-out-of-range"),
    pytest.param(["run", "--experiment", "weakvalue", "--param", "sigma=9.999999999999999e-151"],
                 2, id="weakvalue-sigma-below-its-domain"),
    # The record model's ranges are parameter ranges too, whatever n is.
    pytest.param(["run", "--experiment", "robustness", "--param", "c=1"], 2,
                 id="robustness-c-out-of-range"),
    pytest.param(["run", "--experiment", "robustness", "--param", "n=0", "--param", "gamma1=5"],
                 2, id="robustness-gamma1-out-of-range"),
    pytest.param(["run", "--experiment", "threshold", "--param", "gamma2=1"], 2,
                 id="threshold-gamma2-out-of-range"),
    # robustness never loads numpy: its oracle is pure Python, at every size.
    pytest.param(["run", "--experiment", "robustness", "--param", "env_sizes=13,20,57"], 0,
                 id="robustness-no-oracle-size"),
    pytest.param(["run", "--experiment", "robustness", "--param", "n=0"], 0,
                 id="robustness-nothing-collapsed"),
    pytest.param(["run", "--experiment", "robustness", "--param", "env_sizes=8,10,12",
                  "--param", "n=3", "--param", "gamma1=0.9", "--param", "gamma2=0.7"], 0,
                 id="robustness-oracle-sizes"),
    pytest.param(["run", "--experiment", "robustness", "--seed", "31337", "--param", "n=5"], 0,
                 id="robustness-golden-config"),
    # commutator's spin oracle is exact integer arithmetic, at every size.
    pytest.param(["run", "--experiment", "commutator"], 0, id="commutator-defaults"),
    pytest.param(["run", "--experiment", "commutator", "--param", "brute_max=11"], 0,
                 id="commutator-brute_max-11"),
    # Limits checked while parsing, or by a runner before it computes.
    pytest.param(["run", "--experiment", "born", "--param", "trials=0"], 2,
                 id="born-trials-out-of-range"),
    pytest.param(["run", "--experiment", "robustness", "--param", "env_sizes=8,8"], 2,
                 id="robustness-one-distinct-size"),
    pytest.param(["run", "--experiment", "robustness", "--param",
                  "env_sizes=100000000000000000000,100000000000000000001"], 2,
                 id="robustness-sizes-equal-as-floats"),
    pytest.param(["run", "--experiment", "convergence", "--param",
                  "Ns=100000000000000000000,100000000000000000001"], 2,
                 id="convergence-sizes-equal-as-floats"),
    pytest.param(["run", "--experiment", "commutator", "--param", "brute_max=13"], 2,
                 id="commutator-brute_max-out-of-range"),
]


def test_importing_the_cli_does_not_import_numpy():
    assert _child("import sys, tsvf_sim.cli\nprint('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize(("argv", "exit_code"), NUMPY_FREE_RUNS)
def test_run_does_not_import_numpy(tmp_path, argv, exit_code):
    config = tmp_path / "sweep.cfg"
    config.write_text("experiment = robustness\nseed = 3\nthis line has no separator\n")
    argv = [a.format(config=config) for a in argv]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "out.csv")]
    out = _child(RUN_AND_REPORT, json.dumps(argv))
    assert json.loads(out.splitlines()[-1]) == [exit_code, False]


CALLED_THROUGH_THE_MODULE = [
    ("weak_estimate", "weakvalue", {"trials": "200"}),
    ("brute_force_spin_commutator", "commutator", {"brute_max": "3"}),
    ("average_spin_commutator", "commutator", {"brute_max": "3"}),
    ("brute_force_ratio", "robustness", {}),
]


@pytest.mark.parametrize(("name", "experiment", "overrides"), CALLED_THROUGH_THE_MODULE)
def test_runner_calls_a_rebound_module_name(monkeypatch, name, experiment, overrides):
    calls = []
    original = getattr(experiments, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, wrapper)
    exp = experiments.EXPERIMENTS[experiment]
    exp.runner(experiments.resolve_params(exp, overrides), 0)
    assert calls


def test_strong_measure_is_served_from_measurement():
    from tsvf_sim.measurement import strong_measure

    assert experiments.strong_measure is strong_measure
