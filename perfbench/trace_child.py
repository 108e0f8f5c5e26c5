"""Run one `tsvf-sim` invocation with its public layer functions wrapped in spans.

Usage: python perfbench/trace_child.py SPANS_JSON INVOCATION_ID -- run --experiment ...

`tsvf_sim` must be importable (the benchmark sets PYTHONPATH to the checkout's
`src`). Each wrapper is installed on the name the calling code looks up at
call time, so the program itself is not edited: runners are replaced through
`dataclasses.replace` on the frozen EXPERIMENTS entries, and module-level
names are rebound in the module that calls them. Spans (name, start, end,
parent, thread, attributes) stay in memory and are written once, after
`cli.main` returns. The exit code is the one `cli.main` returned.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

clock = time.perf_counter


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, thread, attrs]
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._mem_lock = threading.Lock()
        self._mem_active = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        # A worker thread's first span belongs to whatever the main thread is
        # inside of when the worker picks up the task (the runner, for the
        # commutator pool); such spans overlap and are reported as overlap.
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def call(self, name: str, fn, args, kwargs, attrs=None, memory=False, signature=None):
        # Wrapped names are registered in wrap(); only the main thread adds one here.
        name_id = self.names.setdefault(name, len(self.names))
        stack = self._stack()
        span = [name_id, 0.0, 0.0, self._parent(stack), threading.get_ident(), None]
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        if memory:
            self._mem_enter()
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
            if memory:
                peak = self._mem_exit()
                span[5] = {"peak_alloc_bytes": peak}
        if attrs is not None:
            arguments = signature.bind(*args, **kwargs).arguments
            span[5] = dict(span[5] or {}, **attrs(arguments, result))
        return result

    def wrap(self, name: str, fn, attrs=None, memory=False):
        """Wrap fn in a span; attrs(arguments_by_name, result) adds attributes."""
        self.names.setdefault(name, len(self.names))
        signature = inspect.signature(fn) if attrs is not None else None

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs, memory, signature)

        return wrapper

    # tracemalloc runs only while an oracle call is active, so the sampling
    # layers are not slowed by it. Overlapping oracle calls share one window;
    # each records the peak of that window so far.
    def _mem_enter(self):
        with self._mem_lock:
            if self._mem_active == 0:
                tracemalloc.start()
            self._mem_active += 1

    def _mem_exit(self) -> int:
        with self._mem_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_active -= 1
            if self._mem_active == 0:
                tracemalloc.stop()
            return peak

    def dump(self, path: str, invocation: str, exit_code: int):
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as f:
            json.dump({"invocation": invocation, "exit": exit_code, "names": names,
                       "spans": self.spans}, f)


def _install(tracer: Tracer):
    import numpy as np

    from tsvf_sim import cli, experiments, measurement, pointer

    def render_attrs(arg, text):
        return {"rows": len(arg["result"].rows), "bytes": len(text.encode())}

    def write_attrs(arg, written):
        return {"bytes": len(arg["data"].encode())}

    def weak_attrs(arg, est):
        return {"trials": int(arg["trials"]), "accepted": int(est.accepted)}

    def pdf_attrs(arg, out):
        return {"evals": int(np.size(arg["q"]))}

    def spin_attrs(arg, out):
        return {"n": int(arg["n"])}

    cli.parse_config_file = tracer.wrap("cli.config", cli.parse_config_file)
    cli.resolve_params = tracer.wrap("cli.resolve", cli.resolve_params)
    cli.render_csv = tracer.wrap("cli.render", cli.render_csv, render_attrs)
    # cli writes the CSV with Path(out).write_text; nothing else in a run does.
    Path.write_text = tracer.wrap("cli.write", Path.write_text, write_attrs)

    for name, exp in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[name] = dataclasses.replace(
            exp, runner=tracer.wrap("experiments.compute", exp.runner)
        )
    experiments.strong_measure = tracer.wrap("measurement.strong_measure",
                                             experiments.strong_measure)
    experiments.weak_estimate = tracer.wrap("measurement.weak_estimate",
                                            experiments.weak_estimate, weak_attrs)
    measurement.readout_density = tracer.wrap("pointer.readout_density",
                                              measurement.readout_density)
    pointer.ReadoutDensity.sample = tracer.wrap("pointer.sample", pointer.ReadoutDensity.sample)
    pointer.ReadoutDensity.pdf = tracer.wrap("pointer.pdf", pointer.ReadoutDensity.pdf,
                                             pdf_attrs)

    experiments.brute_force_spin_commutator = tracer.wrap(
        "ensemble.spin_oracle", experiments.brute_force_spin_commutator, spin_attrs, memory=True)
    experiments.brute_force_ratio = tracer.wrap(
        "twotime.ratio_oracle", experiments.brute_force_ratio, memory=True)
    for fn in ("average_spin_commutator", "average_operator_residual"):
        setattr(experiments, fn, tracer.wrap("ensemble.closed_form", getattr(experiments, fn)))
    for fn in ("log_robustness_ratio", "robustness_ratio", "classical_threshold", "core_decay"):
        setattr(experiments, fn, tracer.wrap("twotime.closed_form", getattr(experiments, fn)))
    return cli


def main() -> int:
    spans_path, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON INVOCATION_ID -- ARGS...")
    tracer = Tracer()
    cli = tracer.call("setup.import", _install, (tracer,), {})
    try:
        code = tracer.call("cli.main", cli.main, (argv,), {})
    except SystemExit as exc:  # argparse rejects malformed flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.dump(spans_path, invocation, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
