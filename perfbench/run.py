#!/usr/bin/env python3
"""cmoore benchmark: four checked, closed-loop workloads.

    python3 perfbench/run.py --workload cluster-sim --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the library is imported from ``src``.
One caller issues the ops of a workload one after another (closed loop,
no threads, no parallel children) and every answer is checked against an
oracle in ``oracles.py``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run.  The last line of
standard output is one JSON object.  Layer-to-metric expectations are in
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = {
    "cluster-sim": "wl_cluster",
    "kernels": "wl_kernels",
    "stores": "wl_stores",
    "cli-oneshot": "wl_cli",
}
SETUP_SAMPLES = 7
MIN_OPS = 100  # so that at least ten samples lie beyond p90

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops_failed_ratio", "ratio"),
]

PER_LAYER = [
    (f"{layer}.{what}", unit)
    for layer in harness.LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("cluster.simulate_s", "s"),
    ("cluster.ticks", "count"),
    ("cluster.emissions", "count"),
    ("cluster.us_per_tick", "us"),
    ("cluster.unfold_s", "s"),
    ("cluster.unfold_configs", "count"),
    ("cluster.classify_s", "s"),
    ("cluster.cycle_length_s", "s"),
    ("cluster.cycle_verified_ratio", "ratio"),
    ("cluster.bisim_s", "s"),
    ("cluster.bisim_states", "count"),
    ("analysis.stationary_s", "s"),
    ("analysis.stationary_states", "count"),
    ("analysis.path_count_s", "s"),
    ("analysis.path_count_cells", "count"),
    ("analysis.mc_s", "s"),
    ("analysis.mc_steps", "count"),
    ("analysis.sync_word_s", "s"),
    ("analysis.sync_word_letters", "count"),
    ("analysis.approx_s", "s"),
    ("machine.states_built", "count"),
    ("machine.validate_s", "s"),
    ("machine.json_s", "s"),
    ("menagerie.states_built", "count"),
    ("memory.script_s", "s"),
    ("memory.symbols", "count"),
    ("memory.writes", "count"),
    ("memory.us_per_symbol", "us"),
    ("memory.read_s", "s"),
    ("memory.reads", "count"),
    ("fluents.assign_s", "s"),
    ("fluents.assigned_units", "count"),
    ("fluents.evaluate_s", "s"),
    ("fluents.window_units", "count"),
    ("fluents.ns_per_unit", "ns"),
    ("lingua.parse_s", "s"),
    ("lingua.chart_items", "count"),
    ("lingua.survival_ratio", "ratio"),
    ("lingua.activate_s", "s"),
    ("lingua.activation_steps", "count"),
    ("cli.invocations", "count"),
    ("cli.wall_s", "s"),
    ("cli.import_s", "s"),
    ("cli.interp_s", "s"),
    ("cli.tracebacks", "count"),
    ("bench.oracle_s", "s"),
    ("bench.trace_overhead_s", "s"),
]


def load_library():
    """Import cmoore from this checkout's ``src``, nowhere else."""
    package = ROOT / "src" / "cmoore"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library at {package}; run from a cmoore checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import cmoore

    if Path(cmoore.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported cmoore from {cmoore.__file__}, not {package}")
    return cmoore


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to inputs ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - spawned)
    return statistics.median(samples)


def summary(workload, seed, tally, rounds, trace) -> str:
    beyond = sum(1 for x in tally.latencies if x > harness.percentile(tally.latencies, 90))
    failures = ", ".join(
        f"{kind}x{n} ({bad or 'UNEXPECTED'})" for (kind, bad), n in sorted(
            tally.failures.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
    ) or "none"
    return (f"# {workload} seed={seed} trace={trace}: {tally.attempted} ops in {rounds} rounds, "
            f"{beyond} samples beyond p90; failures: {failures}")


def end_to_end(module, ops, api, env, args) -> tuple[harness.Tally, int, dict]:
    tally = harness.Tally()
    rounds = 0
    started = time.perf_counter()
    while True:
        harness.run_round(ops, api, tally, rounds)
        rounds += 1
        if time.perf_counter() - started >= args.seconds and tally.attempted >= MIN_OPS:
            break
    lat = tally.latencies
    rss = env.child_peak_mb if getattr(module, "PEAK_FROM_CHILDREN", False) else harness.peak_rss_mb()
    values = {
        "ops_per_s": tally.correct / tally.busy_s,
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": harness.percentile(lat, 90) * 1000.0,
        "peak_rss_mb": rss,
        "ops_failed_ratio": tally.failed / tally.attempted,
    }
    values["setup_s"] = measure_setup(args.workload, args.seed)
    return tally, rounds, values


def per_layer(module, ops, plain, traced, tracer, env, args) -> tuple[harness.Tally, int, dict]:
    """Alternate untraced and traced passes over the same rounds."""
    untraced, tally = harness.Tally(), harness.Tally()
    rounds = 0
    started = time.perf_counter()
    while True:
        passes = [(plain, untraced, None), (traced, tally, tracer)]
        if rounds % 2:
            passes.reverse()
        for api, into, tr in passes:
            harness.run_round(ops, api, into, rounds, tr)
        rounds += 1
        if time.perf_counter() - started >= args.seconds:
            break
    values = tracer.layer_metrics()
    c = tracer.counts
    for name, _ in PER_LAYER:
        if name not in values:
            values[name] = c.get(name, 0)

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    values["cluster.us_per_tick"] = ratio(values["cluster.simulate_s"], c["cluster.ticks"], 1e6)
    values["cluster.cycle_verified_ratio"] = ratio(c["cluster.cycle_verified"], c["cluster.cycle_answers"])
    values["memory.us_per_symbol"] = ratio(values["memory.script_s"], c["memory.symbols"], 1e6)
    values["fluents.ns_per_unit"] = ratio(values["fluents.evaluate_s"], c["fluents.window_units"], 1e9)
    values["lingua.survival_ratio"] = ratio(c["lingua.surviving_items"], c["lingua.chart_items"])
    values["cli.tracebacks"] = env.tracebacks
    if hasattr(module, "interpreter_floor"):
        values["cli.interp_s"], values["cli.import_s"] = module.interpreter_floor(env)
    values["bench.oracle_s"] = untraced.oracle_s + tally.oracle_s
    values["bench.trace_overhead_s"] = tally.busy_s - untraced.busy_s
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    combined = harness.Tally(
        latencies=untraced.latencies + tally.latencies,
        attempted=untraced.attempted + tally.attempted,
        correct=untraced.correct + tally.correct,
        failures=untraced.failures + tally.failures,
    )
    return combined, rounds, values


def run_workload(args) -> int:
    cm = load_library()
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = harness.Env(str(ROOT), str(workdir))
        functions = harness.library_functions(cm, env)
        plan = module.plan(random.Random(args.seed))
        if args.setup_only:
            module.setup(plan, harness.Api(functions), env)
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        if args.trace:
            tracer = harness.Tracer()
            traced = harness.Api(functions, tracer)
            ops = module.setup(plan, traced, env)
            tally, rounds, values = per_layer(
                module, ops, harness.Api(functions), traced, tracer, env, args)
            names = PER_LAYER
        else:
            api = harness.Api(functions)
            ops = module.setup(plan, api, env)
            tally, rounds, values = end_to_end(module, ops, api, env, args)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(summary(args.workload, args.seed, tally, rounds, args.trace))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, untraced then traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = done.stdout.splitlines()
            print(lines[-2])
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload:12s} {name:32s} {metric['value']:14.6g} {metric['unit']}")
                merged["metrics"][f"{workload}/{name}"] = metric
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
