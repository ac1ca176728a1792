"""Measurement core shared by every workload.

* ``Api`` exposes the library functions the benchmark calls.  Untraced it
  hands out the functions themselves; traced, each call is wrapped in a
  span tagged with its layer (the ``cmoore`` module it belongs to).
* ``Cap`` bounds an in-process call with an interval timer; ``Env.run_child``
  bounds a child process by time (and optionally address space) and reaps
  it with ``wait4`` so its own peak RSS is known.
* ``run_round`` issues one round of ops, closed loop, one caller, and checks
  each answer against its oracle outside the timed region.
"""
from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_CAP_S = 20.0
TRACEBACK_MARK = "Traceback (most recent call last)"


class CapExceeded(BaseException):
    """Raised inside a capped call when its time is up.

    A BaseException so that no ``except Exception`` in the library can
    swallow it.
    """


class Cap:
    """Interrupt the body with CapExceeded after ``seconds`` of wall time."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise CapExceeded

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass
class ChildResult:
    code: int | None  # None when the child was killed at its cap
    stdout: str
    stderr: str
    maxrss_mb: float


@dataclass
class Env:
    """Where a workload may put files and how it starts children."""

    root: str
    workdir: str
    child_peak_mb: float = 0.0
    tracebacks: int = 0

    @property
    def python(self) -> str:
        return sys.executable

    @property
    def child_env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run_child(self, argv, cap_s: float, mem_limit_mb: int | None = None) -> ChildResult:
        """Run ``argv`` to completion or until ``cap_s`` seconds pass.

        Output goes to files in the work directory, so a chatty child can
        never block on a full pipe.  Children killed at the cap do not count
        towards ``child_peak_mb``: their size at the kill depends on timing.
        """
        limit = None
        if mem_limit_mb is not None:
            size = mem_limit_mb * 1024 * 1024

            def limit():
                resource.setrlimit(resource.RLIMIT_AS, (size, size))

        out_path, err_path = self.path("child.out"), self.path("child.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                env=self.child_env,
                cwd=self.workdir,
                preexec_fn=limit,
            )
            try:
                with Cap(cap_s):
                    _, status, usage = os.wait4(proc.pid, 0)
                code = os.waitstatus_to_exitcode(status)
                proc.returncode = code
            except CapExceeded:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                code = None
            out.seek(0)
            err.seek(0)
            result = ChildResult(
                code,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                usage.ru_maxrss / 1024.0,
            )
        if code is not None:
            self.child_peak_mb = max(self.child_peak_mb, result.maxrss_mb)
        if TRACEBACK_MARK in result.stderr:
            self.tracebacks += 1
        return result

    def cli(self, args, cap_s: float, mem_limit_mb: int | None = None) -> ChildResult:
        """One fresh ``python -m cmoore.cli`` invocation."""
        return self.run_child([self.python, "-m", "cmoore.cli", *args], cap_s, mem_limit_mb)


def _states(key):
    return lambda args, result: {key: len(result.states)}


# name -> (layer, timer metric or None, counter fn or None).  Counter fns map
# (arguments, result) to counts; they read only what the benchmark already
# holds, never library internals.
CALLS = {
    # menagerie
    "wheel": ("menagerie", None, _states("menagerie.states_built")),
    # machine
    "make": ("machine", None, _states("machine.states_built")),
    "validate": ("machine", "machine.validate_s", None),
    "to_json": ("machine", "machine.json_s", None),
    "from_json": ("machine", "machine.json_s", _states("machine.states_built")),
    # analysis
    "stationary_distribution": (
        "analysis", "analysis.stationary_s",
        lambda a, r: {"analysis.stationary_states": len(a[0].states)},
    ),
    "path_count_occupancy": (
        "analysis", "analysis.path_count_s",
        lambda a, r: {"analysis.path_count_cells": len(a[0].states) * a[1]},
    ),
    "monte_carlo_occupancy": (
        "analysis", "analysis.mc_s", lambda a, r: {"analysis.mc_steps": a[1]},
    ),
    "synchronizing_word": (
        "analysis", "analysis.sync_word_s",
        lambda a, r: {"analysis.sync_word_letters": len(r.word) if r is not None else 0},
    ),
    "distribution": ("analysis", None, None),
    "approximate_distribution": ("analysis", "analysis.approx_s", None),
    # cluster
    "node": ("cluster", None, None),
    "leaf": ("cluster", None, None),
    "simulate": (
        "cluster", "cluster.simulate_s",
        lambda a, r: {"cluster.ticks": r.ticks_run, "cluster.emissions": r.emissions},
    ),
    "unfold": ("cluster", "cluster.unfold_s", _states("cluster.unfold_configs")),
    "classify": ("cluster", "cluster.classify_s", None),
    "cycle_length": (
        "cluster", "cluster.cycle_length_s",
        lambda a, r: {"cluster.cycle_answers": 1, "cluster.cycle_verified": int(r.verified)},
    ),
    "product": ("cluster", None, None),
    "bisimilar": (
        "cluster", "cluster.bisim_s",
        lambda a, r: {"cluster.bisim_states": len(a[0].states) + len(a[1].states)},
    ),
    # memory
    "build_t1": ("memory", None, None),
    "byte_cell": ("memory", None, None),
    "run_script": (
        "memory", "memory.script_s",
        lambda a, r: {
            "memory.symbols": len(a[1]),
            "memory.writes": sum(1 for s in a[1] if s in ("alpha", "omega")),
        },
    ),
    "corrupt": ("memory", None, None),
    "read": ("memory", "memory.read_s", lambda a, r: {"memory.reads": 1}),
    "majority_read": ("memory", "memory.read_s", lambda a, r: {"memory.reads": 1}),
    # fluents
    "store": ("fluents", None, None),
    "assign": (
        "fluents", "fluents.assign_s",
        lambda a, r: {"fluents.assigned_units": a[2][1] - a[2][0]},
    ),
    "cyclic_fluent": ("fluents", None, None),
    "evaluate_in_child": ("fluents", None, None),
    "evaluate": (
        "fluents", "fluents.evaluate_s",
        lambda a, r: {"fluents.window_units": a[0].scales.units(a[2].scale, a[0].base_scale)},
    ),
    # lingua
    "load_grammar": ("lingua", None, None),
    "parse": (
        "lingua", "lingua.parse_s",
        lambda a, r: {"lingua.chart_items": len(r.chart), "lingua.surviving_items": len(r.items)},
    ),
    "network": ("lingua", None, None),
    "inject": ("lingua", "lingua.activate_s", None),
    "step_network": ("lingua", "lingua.activate_s", lambda a, r: {"lingua.activation_steps": 1}),
    # cli
    "cli": ("cli", "cli.wall_s", lambda a, r: {"cli.invocations": 1}),
}

LAYERS = ("machine", "menagerie", "analysis", "cluster", "memory", "fluents", "lingua", "cli")


def library_functions(cm, env: Env) -> dict[str, Callable]:
    """The callables behind CALLS, bound to the imported library."""
    return {
        "wheel": cm.wheel,
        "make": cm.Automaton.make,
        "validate": cm.validate,
        "to_json": cm.to_json,
        "from_json": cm.from_json,
        "stationary_distribution": cm.stationary_distribution,
        "path_count_occupancy": cm.path_count_occupancy,
        "monte_carlo_occupancy": cm.monte_carlo_occupancy,
        "synchronizing_word": cm.synchronizing_word,
        "distribution": cm.FiniteDistribution.make,
        "approximate_distribution": cm.approximate_distribution,
        "node": cm.ClusterNode,
        "leaf": cm.ClusterNode.leaf,
        "simulate": cm.simulate,
        "unfold": cm.unfold,
        "classify": cm.classify,
        "cycle_length": cm.cycle_length,
        "product": cm.product,
        "bisimilar": cm.bisimilar,
        "build_t1": cm.build_t1,
        "byte_cell": cm.ByteCell,
        "run_script": cm.run_script,
        "corrupt": cm.corrupt,
        "read": cm.read,
        "majority_read": cm.majority_read,
        "store": cm.FluentStore,
        "assign": lambda store, name, domain, ranges: store.assign(name, domain, ranges),
        "cyclic_fluent": lambda store, name, period, phase: store.cyclic_fluent(name, period, phase),
        "evaluate": cm.evaluate,
        "evaluate_in_child": lambda code, cap_s, mem_mb: env.run_child(
            [env.python, "-c", code], cap_s, mem_mb),
        "load_grammar": cm.load_grammar,
        "parse": cm.parse,
        "network": cm.ActivationNetwork.build,
        "inject": cm.inject,
        "step_network": cm.step_network,
        "cli": env.cli,
    }


class Tracer:
    """In-memory spans: [name, layer, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = "setup"

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer, _, count = CALLS[name]

        def traced(*args):
            index = self.begin(name, layer)
            try:
                result = fn(*args)
            finally:
                self.end(index)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per layer, plus the per-call timers."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for timer in {spec[1] for spec in CALLS.values() if spec[1]}:
            out[timer] = 0.0
        for index, (name, layer, start, end, parent, _) in enumerate(self.spans):
            if end is None or layer not in LAYERS:
                continue
            duration = end - start
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child_time[index]
            timer = CALLS[name][1]
            if timer:
                out[timer] += duration
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, layer, start, end, parent, op]) + "\n")


class Api:
    """Attribute access to the library calls, traced or not."""

    def __init__(self, functions: dict[str, Callable], tracer: Tracer | None = None):
        for name, fn in functions.items():
            setattr(self, name, fn if tracer is None else tracer.wrap(name, fn))


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` calls the library through the Api and returns what it got;
    ``check`` compares that (or the exception raised) with the oracle.
    A failed or capped op counts at ``cap_s``.  ``known_bad`` names a case
    the library is known to get wrong today.  ``in_process`` ops are
    bounded by an interval timer; the others bound their own children.
    """

    kind: str
    run: Callable
    check: Callable
    known_bad: str | None = None
    cap_s: float = DEFAULT_CAP_S
    in_process: bool = True


def once(fn: Callable) -> Callable:
    """Memoise a zero-argument oracle: ops repeat every round."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    busy_s: float = 0.0  # op time, oracle excluded
    oracle_s: float = 0.0
    attempted: int = 0
    correct: int = 0
    failures: Counter = field(default_factory=Counter)  # (kind, known_bad) -> n

    @property
    def failed(self) -> int:
        return self.attempted - self.correct

    @property
    def unexpected(self) -> int:
        return sum(n for (_, bad), n in self.failures.items() if bad is None)


CAPPED = object()


def run_round(ops: list[Op], api: Api, tally: Tally, index: int, tracer: Tracer | None = None):
    """Issue one round: every op, except that known-bad ops take turns, one
    per round, so each round fails the same share of its ops."""
    bad = [op for op in ops if op.known_bad]
    turn = bad[index % len(bad)] if bad else None
    for number, op in enumerate(ops):
        if op.known_bad and op is not turn:
            continue
        span = None
        if tracer is not None:
            tracer.op_id = f"r{index}.{number}"
            span = tracer.begin("op:" + op.kind, "bench")
        started = time.perf_counter()
        try:
            if op.in_process:
                with Cap(op.cap_s):
                    outcome = op.run(api)
            else:
                outcome = op.run(api)
        except CapExceeded:
            outcome = CAPPED
        except Exception as exc:  # the oracle decides whether this was expected
            outcome = exc
        elapsed = time.perf_counter() - started
        if span is not None:
            tracer.end(span)
        checked = time.perf_counter()
        try:
            ok = outcome is not CAPPED and bool(op.check(outcome))
        except Exception:
            ok = False
        tally.oracle_s += time.perf_counter() - checked
        tally.busy_s += elapsed
        tally.attempted += 1
        if ok:
            tally.correct += 1
            tally.latencies.append(elapsed)
        else:
            tally.failures[(op.kind, op.known_bad)] += 1
            tally.latencies.append(op.cap_s)


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
