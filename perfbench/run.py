"""Closed-loop benchmark of the `tsvf-sim run` command line.

    python3 perfbench/run.py --workload sampling|oracle|sweep|all --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The program is launched from the checkout's
`src` with the interpreter running this script; nothing is installed. One
child process runs at a time (one client, closed loop). Wall time, CPU time
and max RSS of each child are taken from outside with os.wait4. Every
output is checked (see checks.py) and every repeat of an invocation must give
the same bytes.

A run makes one warm-up pass per workload at the small sizes of --smoke,
which is checked but not counted, then measured passes until the time given
by --seconds (per workload) is spent. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced passes with passes
whose children run under trace_child.py, and reports the per-layer metrics
from the traced ones plus the tracing overhead. Every metric is printed by name with its unit and
sample count; the last line of standard output is one JSON object. With
--workload all the workloads' passes are interleaved and the JSON metric
names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = "import sys; from tsvf_sim.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import tsvf_sim.cli; import time; "
                "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
SETUP_PROBES_PER_PASS = 4
SLACK_S = 100.0  # a child still running this long after the budget is killed

END_TO_END = {  # name: (unit, description)
    "wall_s": ("s", "wall time of one pass, summed over its children"),
    "cpu_s": ("s", "user + sys CPU time of one pass's children"),
    "peak_rss_mb": ("MiB", "largest child max RSS in a pass"),
    "setup_s": ("s", "spawn until `import tsvf_sim.cli` finishes, import-only child"),
}
# Per-layer metrics of the traced run: unit, and which end-to-end metric each
# should move on which workload, written down before any optimisation so that
# a change's issue can say which of these numbers it expects to move.
PER_LAYER = {  # name: (unit, target)
    "setup.import_s": ("s", "setup_s on every workload, most visible on sweep"),
    "cli.main_s": ("s", "wall_s on sweep"),
    "cli.config_s": ("s", "wall_s on sweep"),
    "cli.resolve_s": ("s", "wall_s on sweep"),
    "experiments.compute_s": ("s", "wall_s on sampling and oracle"),
    "experiments.compute_self_s": ("s", "wall_s on sampling and oracle"),
    "measurement.strong_measure_s": ("s", "wall_s and cpu_s on sampling"),
    "measurement.strong_measure_calls": ("count", "wall_s and cpu_s on sampling"),
    "measurement.weak_estimate_s": ("s", "wall_s on sampling"),
    "pointer.readout_density_s": ("s", "wall_s on sampling"),
    "pointer.sample_s": ("s", "wall_s on sampling"),
    "pointer.pdf_evals": ("count", "wall_s on sampling"),
    "pointer.acceptance_ratio": ("ratio", "useful-work ratio on sampling; should not move"),
    "ensemble.spin_oracle_s": ("s", "wall_s and cpu_s on oracle"),
    "ensemble.spin_oracle_s.n09": ("s", "wall_s and cpu_s on oracle"),
    "ensemble.spin_oracle_s.n10": ("s", "wall_s and cpu_s on oracle"),
    "ensemble.spin_oracle_s.n11": ("s", "wall_s and cpu_s on oracle"),
    "ensemble.spin_oracle_calls": ("count", "wall_s and cpu_s on oracle"),
    "ensemble.spin_oracle_peak_alloc_mb": ("MiB", "peak_rss_mb on oracle"),
    "ensemble.spin_oracle_overlap": ("ratio", "cpu_s and wall_s on oracle"),
    "twotime.ratio_oracle_s": ("s", "wall_s on oracle"),
    "twotime.ratio_oracle_calls": ("count", "wall_s on oracle"),
    "twotime.ratio_oracle_peak_alloc_mb": ("MiB", "peak_rss_mb on oracle"),
    "ensemble.closed_form_s": ("s", "wall_s on sweep (guard; should stay near 0)"),
    "twotime.closed_form_s": ("s", "wall_s on sweep (guard; should stay near 0)"),
    "twotime.closed_form_calls": ("count", "wall_s on sweep (guard)"),
    "cli.render_s": ("s", "wall_s and peak_rss_mb on sampling"),
    "cli.render_rows": ("count", "wall_s and peak_rss_mb on sampling"),
    "cli.render_bytes": ("count", "wall_s and peak_rss_mb on sampling"),
    "cli.write_s": ("s", "wall_s on sampling and sweep"),
    "cli.write_bytes": ("count", "wall_s on sampling and sweep"),
    "trace.overhead_s": ("s", "traced pass wall_s minus untraced pass wall_s"),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken child, ...)."""


@dataclass
class Child:
    code: int
    start: float  # CLOCK_MONOTONIC at spawn
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str
    killed: bool = False


@dataclass
class Pass:
    kind: str  # warmup | untraced | traced
    elapsed: float = 0.0  # whole pass, checks included; used for scheduling
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    setup: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


class Launcher:
    """Starts one child at a time, through spawner.py, and measures it from outside."""

    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        # Only the import path is set; BLAS and TSVF_SIM_THREADS stay as the
        # user has them, so the program is measured as users run it.
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=work,
                                        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def run(self, argv: list[str]) -> Child:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": self.hard_deadline - time.perf_counter()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise BenchError("the spawner process exited")
        reply = json.loads(line)
        return Child(
            code=reply["code"],
            start=reply["start"],
            wall=reply["wall"],
            cpu=reply["cpu"],
            rss_mb=reply["maxrss_kib"] / 1024.0,  # Linux reports KiB
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
            killed=reply["killed"],
        )

    def close(self):
        """Stop the spawner and wait for it; kill it if it does not stop."""
        try:
            self.spawner.stdin.close()
            self.spawner.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.spawner.kill()
            self.spawner.wait()


class Workload:
    """One workload's invocations, outputs seen so far, and passes."""

    def __init__(self, name: str, invocations: list[wl.Invocation],
                 warmup: list[wl.Invocation] = ()):
        self.name = name
        self.invocations = invocations
        self.warmup = warmup
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[Pass] = []

    def measured(self, kind: str) -> list[Pass]:
        return [p for p in self.passes if p.kind == kind]

    @classmethod
    def build(cls, name: str, seed: int, smoke: bool) -> "Workload":
        # The warm-up pass runs the same experiments at the small sizes of
        # --smoke: it fills the file cache and compiles bytecode as a full
        # pass would, and leaves the time budget to measured passes.
        warmup = [dataclasses.replace(inv, ident="warmup/" + inv.ident)
                  for inv in wl.BUILDERS[name](seed, True)]
        return cls(name, wl.BUILDERS[name](seed, smoke), warmup)


def _oneline(text: str, limit: int = 300) -> str:
    return " | ".join(line.strip() for line in text.strip().splitlines())[:limit]


def judge(inv: wl.Invocation, child: Child, out: Path, digests: dict[str, str]) -> list[str]:
    """Problems with one finished invocation; an empty list means it passed."""
    if child.killed:
        return ["killed at the time limit"]
    if child.code != inv.expect_exit:
        return [f"exit {child.code}, expected {inv.expect_exit}: {_oneline(child.stderr)}"]
    if inv.malformed:
        problems = []
        if not child.stderr.startswith("tsvf-sim: error:"):
            problems.append(f"no configuration error message: {_oneline(child.stderr)!r}")
        if out.exists():
            problems.append("an output file was written for malformed input")
        return problems
    if child.stderr:
        return [f"stderr on exit 0: {_oneline(child.stderr)}"]
    if not out.exists():
        return ["no output file"]
    data = out.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if inv.ident not in digests:  # first run of this invocation: check its output
        digests[inv.ident] = digest
        return checks.check_output(inv.experiment, data.decode(), inv.expected)
    if digests[inv.ident] != digest:
        return ["output differs from an earlier run of the same invocation"]
    return []


def run_invocation(launcher: Launcher, w: Workload, inv: wl.Invocation,
                   traced: bool) -> tuple[Child, dict | None]:
    out = launcher.work / "out.csv"
    spans = launcher.work / "spans.json"
    for stale in (out, spans):
        stale.unlink(missing_ok=True)
    argv, config = inv.argv_and_config(str(out))
    if config is not None:
        cfg = launcher.work / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    if traced:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), inv.ident, "--", *argv]
    else:
        cmd = [sys.executable, "-c", LAUNCH, *argv]
    child = launcher.run(cmd)
    w.attempted += 1
    problems = judge(inv, child, out, w.digests)
    w.failures.extend(f"{inv.ident}: {p}" for p in problems)
    doc = None
    if traced and not child.killed:
        try:
            doc = json.loads(spans.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"{inv.ident}: traced child left no spans ({exc}); "
                             f"stderr: {_oneline(child.stderr)}") from None
    return child, doc


def setup_probe(launcher: Launcher) -> float:
    child = launcher.run([sys.executable, "-c", IMPORT_PROBE])
    if child.code != 0 or child.stderr:
        raise BenchError(f"import-only child failed (exit {child.code}): {_oneline(child.stderr)}")
    return float(child.stdout.strip()) - child.start


def run_pass(launcher: Launcher, w: Workload, kind: str) -> Pass:
    began = time.perf_counter()
    p = Pass(kind)
    traced = kind == "traced"
    invocations = w.warmup if kind == "warmup" else w.invocations
    n = len(invocations)
    # Import-only children are spread through untraced passes, so they meet
    # the same host noise as the invocations around them.
    probes = [] if traced else [j * n // SETUP_PROBES_PER_PASS
                                for j in range(SETUP_PROBES_PER_PASS)]
    docs = []
    for i, inv in enumerate(invocations):
        for _ in range(probes.count(i)):
            p.setup.append(setup_probe(launcher))
        child, doc = run_invocation(launcher, w, inv, traced)
        p.wall += child.wall
        p.cpu += child.cpu
        p.rss_mb = max(p.rss_mb, child.rss_mb)
        if doc is not None:
            docs.append(doc)
    if traced:
        p.layers, p.spans = layer_metrics(docs), docs
    p.elapsed = time.perf_counter() - began
    w.passes.append(p)
    return p


# ------------------------------------------------------------------ spans


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer totals for one traced pass (a list of per-invocation span files)."""
    m = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_s"}
    imports, trials, accepted = [], 0, 0
    spin_parents: set[tuple[int, int]] = set()
    compute_len: dict[tuple[int, int], float] = {}
    for k, doc in enumerate(docs):
        names, spans = doc["names"], doc["spans"]
        children: dict[int, list[tuple[float, float]]] = {}
        for name_id, start, end, parent, _thread, attrs in spans:
            children.setdefault(parent, []).append((start, end))
        for idx, (name_id, start, end, parent, _thread, attrs) in enumerate(spans):
            name, dur, attrs = names[name_id], end - start, attrs or {}
            if name == "setup.import":
                imports.append(dur)
            elif name == "experiments.compute":
                m["experiments.compute_s"] += dur
                m["experiments.compute_self_s"] += dur - _union_length(
                    children.get(idx, []), start, end)
                compute_len[(k, idx)] = dur
            elif name == "measurement.strong_measure":
                m["measurement.strong_measure_s"] += dur
                m["measurement.strong_measure_calls"] += 1
            elif name == "measurement.weak_estimate":
                m["measurement.weak_estimate_s"] += dur
                trials += attrs["trials"]
                accepted += attrs["accepted"]
            elif name == "pointer.pdf":
                m["pointer.pdf_evals"] += attrs["evals"]
            elif name in ("ensemble.spin_oracle", "twotime.ratio_oracle"):
                m[name + "_s"] += dur
                m[name + "_calls"] += 1
                peak = attrs["peak_alloc_bytes"] / 2 ** 20
                m[name + "_peak_alloc_mb"] = max(m[name + "_peak_alloc_mb"], peak)
                if name == "ensemble.spin_oracle":
                    spin_parents.add((k, parent))
                    key = f"ensemble.spin_oracle_s.n{attrs['n']:02d}"
                    if key in m:
                        m[key] += dur
            elif name in ("cli.render", "cli.write"):
                m[name + "_s"] += dur
                m[name + "_bytes"] += attrs["bytes"]
                if name == "cli.render":
                    m["cli.render_rows"] += attrs["rows"]
            elif name == "ensemble.closed_form":
                m["ensemble.closed_form_s"] += dur
            elif name == "twotime.closed_form":
                m["twotime.closed_form_s"] += dur
                m["twotime.closed_form_calls"] += 1
            elif name + "_s" in m:  # cli.main, cli.config, cli.resolve, pointer.*
                m[name + "_s"] += dur
    m["setup.import_s"] = statistics.median(imports) if imports else 0.0
    m["pointer.acceptance_ratio"] = accepted / trials if trials else 0.0
    runner_span = sum(compute_len.get(key, 0.0) for key in spin_parents)
    if runner_span:
        m["ensemble.spin_oracle_overlap"] = m["ensemble.spin_oracle_s"] / runner_span
    return m


# ---------------------------------------------------------------- reporting


def range_and_tail(values: list[float]) -> str:
    """Range, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    text = f"min={ordered[0]:.6g} max={ordered[-1]:.6g}"
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            rank = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
            return f"{text} p{pct:g}={ordered[rank]:.6g}"
    return f"{text} (too few samples for a tail percentile)"


def end_to_end(w: Workload) -> dict[str, list[float]]:
    passes = w.measured("untraced")
    return {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "peak_rss_mb": [p.rss_mb for p in passes],
        "setup_s": [s for p in passes for s in p.setup],
    }


def per_layer(w: Workload) -> dict[str, float]:
    traced = w.measured("traced")
    out = {name: statistics.median(p.layers[name] for p in traced)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in w.measured("untraced")))
    return out


def report(w: Workload, trace: bool, probe_lines: list[str]) -> dict[str, tuple[float, str]]:
    tag = f"[{w.name}]"
    metrics = {}
    samples = end_to_end(w)
    for name, (unit, what) in END_TO_END.items():
        values = samples[name]
        median = statistics.median(values)
        print(f"{tag} {name} median={median:.6g} {unit} {range_and_tail(values)} "
              f"n={len(values)}  # {what}")
        if not trace:
            metrics[name] = (median, unit)
    failed = len(w.failures)
    print(f"{tag} fail_ratio {failed / w.attempted:.6g} ratio "
          f"({failed} failed / {w.attempted} attempted, clients={wl.CLIENTS})")
    for line in w.failures[:20]:
        print(f"{tag} FAILED {line}")
    for line in probe_lines:
        print(f"{tag} {line}")
    if trace:
        n = len(w.measured("traced"))
        for name, value in per_layer(w).items():
            unit, target = PER_LAYER[name]
            shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
            print(f"{tag} {name} {shown} {unit} n={n}  # moves {target}")
            metrics[name] = (value, unit)
    return metrics


def run_probes(launcher: Launcher) -> list[str]:
    """Non-finite inputs that should exit 2; reported apart from the workload."""
    probes = Workload("probes", wl.probes())
    lines = []
    for inv in probes.invocations:
        before = len(probes.failures)
        child, _ = run_invocation(launcher, probes, inv, traced=False)
        out = launcher.work / "out.csv"
        nan = ", NaN in output" if out.exists() and checks.has_nan(out.read_text()) else ""
        problems = [f.split(": ", 1)[1] for f in probes.failures[before:]]
        verdict = "FAIL " + "; ".join(problems) if problems else "ok"
        lines.append(f"probe {inv.experiment} {inv.params}: exit {child.code}{nan} -> {verdict}")
    failed, total = len(probes.failures), len(probes.invocations)
    lines.insert(0, f"probe_fail_ratio {failed / total:.6g} ratio ({failed} failed / {total} "
                    "non-finite-input probes; not in the workload's attempted/failed)")
    return lines


def machine(launcher: Launcher) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TSVF_SIM_THREADS")},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        info["caches"] = caches
    except OSError:
        pass
    child = launcher.run([sys.executable, str(HERE / "machine_child.py")])
    if child.code != 0:
        raise BenchError(f"cannot import numpy in a child: {_oneline(child.stderr)}")
    info.update(json.loads(child.stdout))
    return info


# ----------------------------------------------------------------- schedule


def schedule(launcher: Launcher, loads: list[Workload], kinds: list[str], deadline: float):
    """Warm up every workload, then interleave passes until the deadline.

    Each (workload, kind) slot gets at least one measured pass; after that a
    pass starts only if the slot's last pass would still fit before the
    deadline.
    The order of kinds flips every round so neither always runs first.
    """
    for w in loads:
        run_pass(launcher, w, "warmup")
    rnd = 0
    while True:
        ran = False
        order = kinds if rnd % 2 == 0 else kinds[::-1]
        for w in loads:
            for kind in order:
                done = w.measured(kind)
                if done and time.perf_counter() + done[-1].elapsed > deadline:
                    continue
                run_pass(launcher, w, kind)
                ran = True
        rnd += 1
        if not ran:
            return


def write_trace(w: Workload, info: dict, seed: int):
    """Per-layer metrics and the last traced pass's spans, for reading later."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    last = w.measured("traced")[-1]
    targets = {name: target for name, (_, target) in PER_LAYER.items()}
    doc = {"workload": w.name, "seed": seed, "machine": info, "layer_targets": targets,
           "per_layer": per_layer(w), "spans": last.spans}
    (out / f"trace-{w.name}.json").write_text(json.dumps(doc))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload, warm-up included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small problem sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind through the finally below: stop the spawner (which
    # kills a running child) and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "tsvf_sim" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'tsvf_sim'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(wl.BUILDERS) if args.workload == "all" else [args.workload]
    loads = [Workload.build(n, args.seed, args.smoke) for n in names]
    begin = time.perf_counter()
    budget = args.seconds * len(loads)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(work, begin + budget + SLACK_S)
    try:
        info = machine(launcher)
        kinds = ["untraced", "traced"] if args.trace else ["untraced"]
        schedule(launcher, loads, kinds, begin + budget)
        probe_lines = run_probes(launcher) if "sweep" in names else []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    print("machine " + json.dumps(info, sort_keys=True))
    metrics = {}
    for w in loads:
        for name, (value, unit) in report(w, bool(args.trace), probe_lines if w.name == "sweep"
                                          else []).items():
            key = name if len(loads) == 1 else f"{w.name}.{name}"
            if unit == "count" and float(value).is_integer():
                value = int(value)
            metrics[key] = {"value": value, "unit": unit}
        if args.trace:
            write_trace(w, info, args.seed)
    attempted = sum(w.attempted for w in loads)
    failed = sum(len(w.failures) for w in loads)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
