"""The benchmark's workloads: which `tsvf-sim run` invocations a pass makes.

Every workload is a closed loop with one client: the driver starts one child
process, waits for it to exit, checks its output, and only then starts the
next. All inputs (program seeds, parameter lists, config files, which runs
are malformed) are generated from the workload seed, so the same seed gives
the same invocations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CLIENTS = 1  # closed loop: one invocation in flight at a time

# Why each workload was chosen, with its invocation mix and client count;
# BENCHMARK.json repeats these lines.
WORKLOADS = {
    "sampling": (
        "Monte Carlo path: born (100k trials) and weakvalue (200k) at defaults, 1 "
        "closed-loop client; per-trial strong_measure loop, sampler and ~129k-row CSV "
        "render; no oracle"
    ),
    "oracle": (
        "Dense oracles at their limits: commutator brute_max=11 and robustness "
        "env_sizes=8,10,12, 1 closed-loop client; 8^N time, 4^N memory, BLAS and thread "
        "pool"
    ),
    "sweep": (
        "16 short runs (convergence, robustness N>12, threshold, decay), half via "
        "--config, 2 malformed (exit 2), 1 closed-loop client; process start, imports "
        "and small writes dominate"
    ),
}

# Inputs that are not finite. The program should reject each with exit 2 and
# no NaN in any output; at the time the benchmark was written none of them
# does, so they run as probes beside the workload and are reported apart
# from its attempted/failed counts.
NONFINITE_PROBES = (
    ("weakvalue", {"sigma": "inf"}),
    ("decay", {"t_max": "inf"}),
    ("threshold", {"targets": "inf"}),
    ("convergence", {"Ns": "1e400"}),
)

# Smaller sizes for the benchmark's own tests; the checks are the same.
SMOKE = {"born_trials": 2000, "weak_trials": 20000, "brute_max": 6, "sweep_runs": 8}


@dataclass
class Invocation:
    """One `tsvf-sim run` child process and what its output must satisfy."""

    ident: str
    experiment: str
    seed: str  # passed through as text, so a malformed seed can be expressed
    params: dict[str, str]
    via_config: bool = False
    malformed: str | None = None  # how the input is broken; expect exit 2
    expected: dict = field(default_factory=dict)  # parameter values the output must echo

    @property
    def expect_exit(self) -> int:
        return 2 if self.malformed else 0

    def argv_and_config(self, out: str) -> tuple[list[str], str | None]:
        """Command-line arguments, and the config file text when one is used."""
        argv = ["run"]
        config = None
        if self.via_config:
            lines = [f"experiment = {self.experiment}", f"seed = {self.seed}"]
            lines.extend(f"{k} = {v}" for k, v in self.params.items())
            if self.malformed == "config line without '='":
                lines.append("this line has no separator")
            config = "# generated sweep config\n" + "\n".join(lines) + "\n"
        else:
            argv += ["--experiment", self.experiment, "--seed", self.seed]
            for k, v in self.params.items():
                argv += ["--param", f"{k}={v}"]
        argv += ["--out", out]
        return argv, config


def _fmt(x: float) -> str:
    return repr(float(x))


def _u64(rng: random.Random) -> str:
    return str(rng.getrandbits(64))


def sampling(seed: int, smoke: bool = False) -> list[Invocation]:
    """born and weakvalue at default parameters; the checks pin the defaults."""
    rng = random.Random(f"sampling:{seed}")
    born_trials = {"trials": SMOKE["born_trials"]} if smoke else {}
    weak_trials = {"trials": SMOKE["weak_trials"]} if smoke else {}
    return [
        Invocation("sampling/0/born", "born", _u64(rng), _as_params(born_trials),
                   expected={"alpha2": 0.36, "trials": 100000, **born_trials}),
        Invocation("sampling/1/weakvalue", "weakvalue", _u64(rng), _as_params(weak_trials),
                   expected={"g_over_sigma": 0.01, "sigma": 1.0, "trials": 200000,
                             **weak_trials}),
    ]


def _robustness_model(rng: random.Random, n_max: int) -> dict[str, float]:
    return {
        "c": round(rng.uniform(0.6, 0.95), 6),
        "n": rng.randint(1, n_max),
        "gamma1": round(rng.uniform(0.8, 1.0), 6),
        "gamma2": round(rng.uniform(0.5, 0.95), 6),
    }


def _as_params(values: dict) -> dict[str, str]:
    out = {}
    for k, v in values.items():
        if isinstance(v, list):
            out[k] = ",".join(str(x) if isinstance(x, int) else _fmt(x) for x in v)
        else:
            out[k] = str(v) if isinstance(v, int) else _fmt(v)
    return out


def oracle(seed: int, smoke: bool = False) -> list[Invocation]:
    rng = random.Random(f"oracle:{seed}")
    brute_max = SMOKE["brute_max"] if smoke else 11
    closed = sorted(rng.sample(range(12, 10 ** 7), 3))
    comm = {"brute_max": brute_max, "closed_Ns": closed}
    robust = dict(_robustness_model(rng, 5), env_sizes=[8, 10, 12])
    return [
        Invocation("oracle/0/commutator", "commutator", _u64(rng), _as_params(comm),
                   expected=comm),
        Invocation("oracle/1/robustness", "robustness", _u64(rng), _as_params(robust),
                   expected=robust),
    ]


def _sweep_params(experiment: str, rng: random.Random) -> dict:
    if experiment == "convergence":
        return {"Ns": sorted(rng.sample(range(10, 10 ** 7), rng.randint(3, 6)))}
    if experiment == "robustness":
        model = _robustness_model(rng, 12)
        sizes = sorted(rng.sample(range(13, 400), rng.randint(3, 6)))
        return dict(model, env_sizes=sizes)
    if experiment == "threshold":
        model = _robustness_model(rng, 8)
        targets = sorted(10.0 ** rng.uniform(1.0, 12.0) for _ in range(rng.randint(2, 4)))
        return dict(model, targets=[float(f"{t:.6g}") for t in targets])
    if experiment == "decay":
        return {
            "n0": float(f"{10.0 ** rng.uniform(3.0, 9.0):.6g}"),
            "time_constant": round(rng.uniform(0.1, 10.0), 4),
            "t_max": round(rng.uniform(0.5, 50.0), 4),
            "steps": rng.randint(2, 500),
        }
    raise ValueError(experiment)


SWEEP_EXPERIMENTS = ("convergence", "robustness", "threshold", "decay")
MALFORMED = (
    "unknown parameter",
    "unparseable value",
    "config line without '='",
    "unknown experiment",
    "seed is not an integer",
)


def sweep(seed: int, smoke: bool = False) -> list[Invocation]:
    rng = random.Random(f"sweep:{seed}")
    runs = SMOKE["sweep_runs"] if smoke else 16
    kinds = [SWEEP_EXPERIMENTS[i % len(SWEEP_EXPERIMENTS)] for i in range(runs)]
    rng.shuffle(kinds)
    via_config = set(rng.sample(range(runs), runs // 2))
    broken = set(rng.sample(range(runs), max(1, runs // 8)))
    out = []
    for i, experiment in enumerate(kinds):
        values = _sweep_params(experiment, rng)
        inv = Invocation(f"sweep/{i}/{experiment}", experiment, _u64(rng), _as_params(values),
                         via_config=i in via_config, expected=values)
        if i in broken:
            how = rng.choice([m for m in MALFORMED
                              if inv.via_config or m != "config line without '='"])
            inv.malformed = how
            if how == "unknown parameter":
                inv.params["no_such_param"] = "1"
            elif how == "unparseable value":
                inv.params[next(iter(inv.params))] = "not-a-number"
            elif how == "unknown experiment":
                inv.experiment = experiment + "_typo"
            elif how == "seed is not an integer":
                inv.seed = "12.5"
        out.append(inv)
    return out


def probes() -> list[Invocation]:
    return [
        Invocation(f"probe/{i}/{exp}", exp, "0", dict(params), malformed="non-finite input")
        for i, (exp, params) in enumerate(NONFINITE_PROBES)
    ]


BUILDERS = {"sampling": sampling, "oracle": oracle, "sweep": sweep}
