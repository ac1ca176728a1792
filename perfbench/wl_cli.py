"""cli-oneshot: every subcommand as a fresh ``python -m cmoore.cli`` child.

Small inputs (the README examples and their seeded variants, plus machine,
cluster, store, lexicon, network and script files written during set-up),
so interpreter start, ``import cmoore`` and per-call machine builds
dominate.  Exit code and standard output are checked exactly.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import time
from fractions import Fraction

import oracles
import wl_stores
from harness import DEFAULT_CAP_S, Op

PEAK_FROM_CHILDREN = True  # peak_rss_mb is the largest child, not this process
KNOWN_BAD_CAP_S = 2.0
CHILD_MEMORY_MB = 512
FLOOR_SAMPLES = 5


def _coprime(rng, count, low, high):
    while True:
        sizes = [rng.randint(low, high) for _ in range(count)]
        if all(math.gcd(a, b) == 1 for i, a in enumerate(sizes) for b in sizes[i + 1:]):
            return sizes


def _unique_distribution(rng):
    """Three probabilities in hundredths whose smallest wheel has exactly
    one admissible apportionment, so the printed counts are determined."""
    while True:
        a = rng.randint(10, 60)
        b = rng.randint(10, 90 - a)
        probs = [Fraction(a, 100), Fraction(b, 100), Fraction(100 - a - b, 100)]
        eps = Fraction(1, rng.choice((50, 100, 200)))
        size = oracles.smallest_size(probs, eps, 2000)
        if size and len(oracles.count_vectors(probs, eps, size)) == 1:
            return [str(float(p)) for p in probs], str(float(eps))


def plan(rng) -> list[dict]:
    ops = [
        {"kind": "occupancy-stationary", "n": rng.choice((2, 3, 4, 5, 6, 7, 9))},
        {"kind": "occupancy-path-count", "steps": rng.randint(30, 60)},
        {"kind": "occupancy-mc", "n": rng.randint(3, 9), "steps": 80_000, "seed": rng.randint(0, 999)},
        {"kind": "classify-chain", "n": rng.randint(2, 60)},
        {"kind": "classify-wheel", "n": rng.randint(2, 60)},
        {"kind": "simulate", "outer": 2, "inner": [3, 5], "ticks": 20_000, "policy": "union"},
        {"kind": "simulate", "outer": 2, "inner": _coprime(rng, 2, 2, 9), "ticks": 3000,
         "policy": rng.choice(("union", "current"))},
        {"kind": "cycle-length", "outer": 2, "inner": [3, 5]},
        {"kind": "cycle-length", "outer": rng.randint(2, 4), "inner": _coprime(rng, 2, 2, 13)},
        {"kind": "cycle-length-sizes", "sizes": [2, 8192, 6561, 3125]},
        {"kind": "cycle-length-sizes", "sizes": [rng.randint(2, 9)] + _coprime(rng, 4, 10**6, 10**7)},
        {"kind": "validate", "n": rng.randint(2, 50)},
        {"kind": "sync-word", "symbols": "".join(rng.sample("bcdfghjklmnpqstvwxz", rng.randint(2, 5)))},
        {"kind": "bisim", "left": (n := rng.randint(2, 40)), "right": rng.choice((n, 2 * n))},
        {"kind": "approx-dist", "probs": ["0.5", "0.3", "0.2"], "eps": "0.01"},
        {"kind": "approx-dist", **dict(zip(("probs", "eps"), _unique_distribution(rng)))},
        {"kind": "tape", "script": ["nu", "nu", "alpha"], "fault": [1, 2]},
        {"kind": "tape", "seed": rng.getrandbits(32), "length": rng.randint(200, 2000),
         "fault": [rng.randrange(3), rng.randrange(256)]},
        {"kind": "parse-demo", "context": False},
        {"kind": "parse-demo", "context": True},
        {"kind": "parse-file", "seed": rng.getrandbits(32)},
        {"kind": "activate-demo"},
        {"kind": "activate-file", "nodes": rng.randint(10, 30), "steps": rng.randint(3, 8),
         "seed": rng.getrandbits(32)},
        {"kind": "export-dot"},
        {"kind": "classify-file", "stem": rng.randint(0, 20), "cycle": rng.randint(2, 30)},
        {"kind": "occupancy-file", "n": rng.choice((3, 4, 5, 6, 7, 9))},
        {"kind": "validate-file", "n": rng.randint(20, 60), "seed": rng.getrandbits(32)},
        {"kind": "simulate-file", "ticks": 2000, "seed": rng.getrandbits(32)},
        {"kind": "cycle-length-file", "seed": rng.getrandbits(32)},
        {"kind": "fluent-file", "cyclic": False, "seed": rng.getrandbits(32)},
        {"kind": "fluent-file", "cyclic": True, "seed": rng.getrandbits(32)},
    ]
    for _ in range(rng.randint(0, 1)):
        ops.append({"kind": "bisim", "left": (n := rng.randint(2, 40)), "right": n})
    for missing in ("tape", "fluent", "parse", "activate"):
        ops.append({"kind": "missing-file", "command": missing, "known_bad": f"{missing}-missing-file"})
    ops.append({"kind": "fluent-scale-0", "period": rng.randint(50, 5000), "index": rng.randint(-5, 5),
                "mode": rng.choice(("forall", "exists", "preponderant")),
                "seed": rng.getrandbits(32), "known_bad": "cli-cyclic-fluent-scale-0"})
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ documents

def wheel_doc(size, loops=()):
    names = oracles.wheel_names(size)
    edges = [[names[i], "e", names[(i + 1) % size]] for i in range(size)]
    edges += [[s, "e", s] for s in loops]
    return {"name": f"wheel-{size}", "states": names, "initial": names[0], "inputs": ["e"],
            "outputs": {names[-1]: "1"}, "edges": edges}


def cluster_doc(tree, scale):
    size, policy, inner = tree
    doc = {"machine": wheel_doc(size), "scale": scale, "tick_policy": policy}
    if inner:
        names = oracles.wheel_names(size)
        doc["inner"] = {names[s]: cluster_doc(sub, scale - 1) for s, sub in inner}
    return doc


def _values(values) -> str:
    return ", ".join(f"{float(v):.6f}" for v in values)


def _cycle_text(value: int) -> str:
    digits = str(value)
    if len(digits) <= 24:
        return digits
    return f"{digits[:12]}...e{len(digits) - 1} ({len(digits)} digits)"


def _simulate_text(tree, ticks) -> str:
    counts, emissions = oracles.simulate_counts(tree, ticks)
    names = oracles.wheel_names(tree[0])
    shares = " ".join(f"{q}={c / ticks:.4f}" for q, c in zip(names, counts))
    return f"ticks={ticks}/{ticks} {shares} emissions={emissions} halted=false"


def _leaf(size):
    return [size, "external", []]


def _write(env, name, content) -> str:
    path = env.path(name)
    with open(path, "w") as fh:
        fh.write(content if isinstance(content, str) else json.dumps(content))
    return path


# ------------------------------------------------------------ ops

def _exact(kind, args, stdout):
    def check(result):
        return result.code == 0 and result.stdout == stdout + "\n"

    return Op(kind, lambda a: a.cli(args, DEFAULT_CAP_S), check, in_process=False)


def _json(kind, args, expected, normalise=lambda d: d):
    def check(result):
        lines = result.stdout.splitlines()
        return result.code == 0 and len(lines) == 1 and normalise(json.loads(lines[0])) == expected

    return Op(kind, lambda a: a.cli(args, DEFAULT_CAP_S), check, in_process=False)


def _error_line(result) -> bool:
    """The failure contract: exit 1 and one JSON line with error and message."""
    lines = result.stdout.splitlines()
    if result.code != 1 or len(lines) != 1 or "Traceback" in result.stderr:
        return False
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return False
    return isinstance(doc, dict) and "error" in doc and "message" in doc


def build_op(spec, env, number) -> Op:
    kind = spec["kind"]
    name = f"{number}-{kind}"
    if kind == "occupancy-stationary":
        n = spec["n"]
        return _exact(kind, ["occupancy", "--machine", f"wheel:{n},loops=a", "--mode", "stationary"],
                      _values(oracles.lazy_wheel_stationary(n)))
    if kind == "occupancy-path-count":
        steps = spec["steps"]
        counts = oracles.path_counts([[0, 1], [0]], 0, steps)
        return _exact(kind, ["occupancy", "--machine", "wheel:2,loops=a", "--mode", "path-count",
                             "--steps", str(steps)],
                      _values(Fraction(c, sum(counts)) for c in counts))
    if kind == "occupancy-mc":
        n, steps = spec["n"], spec["steps"]
        visits = [(steps - i) // n + 1 for i in range(n)]
        return _exact(kind, ["occupancy", "--machine", f"wheel:{n}", "--mode", "mc",
                             "--steps", str(steps), "--seed", str(spec["seed"])],
                      _values(v / (steps + 1) for v in visits))
    if kind == "classify-chain":
        return _exact(kind, ["classify", "--machine", f"chain:{spec['n']}"], f"L({spec['n']})")
    if kind == "classify-wheel":
        return _exact(kind, ["classify", "--machine", f"wheel:{spec['n']}"], f"C({spec['n']})")
    if kind == "simulate":
        policy = "union" if spec["policy"] == "union" else "current-state"
        tree = [spec["outer"], policy, [[i, _leaf(s)] for i, s in enumerate(spec["inner"])]]
        names = oracles.wheel_names(spec["outer"])
        args = ["simulate", "--machine", f"wheel:{spec['outer']}"]
        for i, size in enumerate(spec["inner"]):
            args += ["--inner", f"{names[i]}=wheel:{size}"]
        args += ["--ticks", str(spec["ticks"]), "--policy", spec["policy"]]
        return _exact(kind, args, _simulate_text(tree, spec["ticks"]))
    if kind == "cycle-length":
        names = oracles.wheel_names(spec["outer"])
        args = ["cycle-length", "--machine", f"wheel:{spec['outer']}"]
        for i, size in enumerate(spec["inner"]):
            args += ["--inner", f"{names[i]}=wheel:{size}"]
        return _exact(kind, args, str(oracles.two_level_cycle(spec["outer"], spec["inner"])))
    if kind == "cycle-length-sizes":
        outer, *inner = spec["sizes"]
        return _exact(kind, ["cycle-length", "--sizes", f"{outer}:{','.join(map(str, inner))}"],
                      _cycle_text(oracles.two_level_cycle(outer, inner)))
    if kind == "validate":
        return _exact(kind, ["validate", "--machine", f"wheel:{spec['n']}"], "ok")
    if kind == "sync-word":
        first = spec["symbols"][0]
        return _exact(kind, ["sync-word", "--machine", f"wire:{spec['symbols']}"],
                      f"word={first} sink={first} initial=false shortest=true")
    if kind == "bisim":
        left, right = spec["left"], spec["right"]
        return _exact(kind, ["bisim", "--machine", f"wheel:{left}", "--other", f"wheel:{right}"],
                      "true" if left == right else "false")
    if kind == "approx-dist":
        probs = [Fraction(p) for p in spec["probs"]]
        eps = Fraction(spec["eps"])
        size = oracles.smallest_size(probs, eps)
        (counts,) = oracles.count_vectors(probs, eps, size)
        text = f"size={size} " + " ".join(f"{i + 1}={c}" for i, c in enumerate(counts))
        return _exact(kind, ["approx-dist", "--probs", ",".join(spec["probs"]), "--eps", spec["eps"]],
                      text)
    if kind == "tape":
        symbols = spec.get("script") or wl_stores.script(spec["length"], "write", spec["seed"])
        path = _write(env, f"{name}.txt", "\n".join(symbols) + "\n")
        masks, head, _, emitted = oracles.tape_model(symbols, 3)
        broken = list(masks)
        broken[spec["fault"][0]] ^= 1 << spec["fault"][1]
        expected = {
            "replicas": [format(m, "064x") for m in broken],
            "majority_bits": "".join(map(str, reversed(oracles.majority_bits(broken)))),
            "head": head,
            "counter": head,
            "emitted": emitted,
        }
        return _json(kind, ["tape", "--script", path, "--inject-fault",
                            "{}:{}".format(*spec["fault"]), "--format", "json"], expected)
    if kind == "parse-demo":
        senses = "(N record)" if spec["context"] else "(N record{record1|record2|record3})"
        args = ["parse", "--sentence", "Eleanor broke the record"]
        if spec["context"]:
            args += ["--context", "Eleanor=athlete"]
        return _exact(kind, args, f"(S (NP Eleanor) (VP (Vt break.PAST) (NP (Art the) {senses})))")
    if kind == "parse-file":
        words = wl_stores.sentences(spec["seed"])[0]
        path = _write(env, f"{name}.json", {
            "words": {w: [[c, s] for c, s in e] for w, e in wl_stores.LEXICON.items()},
            "patterns": [[list(p[0]), *p[1:]] for p in wl_stores.PATTERNS],
        })
        trees = sorted(oracles.cyk_trees(words, wl_stores.LEXICON,
                                         [(p[0], p[1]) for p in wl_stores.PATTERNS]))
        return _json(kind, ["parse", "--lexicon", path, "--sentence", " ".join(words),
                            "--format", "json"],
                     {"full_span": trees, "islands": trees},
                     lambda d: {k: sorted(v) for k, v in d.items()})
    if kind == "activate-demo":
        nodes = ["death(y)", "y", "grief(x)"]
        fired, _ = oracles.activation_run(
            nodes, [("death(y)", "grief(x)"), ("y", "grief(x)")],
            ["death(y)", "death(y)", "y", "y"], 2)
        text = "\n".join(f"step {i + 1}: fired {', '.join(f) if f else '-'}"
                         for i, f in enumerate(fired))
        return _exact(kind, ["activate", "--net", "grief-demo", "--inject", "death(y)", "--inject",
                             "death(y)", "--inject", "y", "--inject", "y", "--steps", "2"], text)
    if kind == "activate-file":
        names, edges, injections = wl_stores.network(spec["nodes"], spec["seed"])
        path = _write(env, f"{name}.json", {"nodes": names, "edges": [list(e) for e in edges]})
        fired, phases = oracles.activation_run(names, edges, injections, spec["steps"])
        args = ["activate", "--net", path, "--steps", str(spec["steps"]), "--format", "json"]
        for node in injections:
            args += ["--inject", node]
        return _json(kind, args, {"trace": fired, "phases": phases})
    if kind == "export-dot":
        path = env.path(f"{name}.dot")

        def check(result):
            with open(path) as fh:
                head = fh.readline()
            return (result.code == 0 and result.stdout == f"wrote {path}\n"
                    and head == 'digraph "synapse-rab" {\n')

        return Op(kind, lambda a: a.cli(["export-dot", "--machine", "synapse:rab", "--out", path],
                                        DEFAULT_CAP_S), check, in_process=False)
    if kind == "classify-file":
        stem, cycle = spec["stem"], spec["cycle"]
        states = [f"s{i}" for i in range(stem + cycle)]
        edges = [[states[i], "e", states[i + 1]] for i in range(stem + cycle - 1)]
        edges.append([states[-1], "e", states[stem]])
        path = _write(env, f"{name}.json", {"name": "lasso", "states": states, "initial": "s0",
                                            "inputs": ["e"], "outputs": {}, "edges": edges})
        return _exact(kind, ["classify", "--machine", path], f"C({cycle})")
    if kind == "occupancy-file":
        n = spec["n"]
        path = _write(env, f"{name}.json", wheel_doc(n, loops=("a",)))
        return _exact(kind, ["occupancy", "--machine", path, "--mode", "stationary"],
                      _values(oracles.lazy_wheel_stationary(n)))
    if kind == "validate-file":
        rng = random.Random(spec["seed"])
        n = spec["n"]
        states = [f"v{i}" for i in range(n)]
        symbols = [f"x{k}" for k in range(8)]
        heavy = sorted(rng.sample(range(n), 3))
        edges = []
        for i, q in enumerate(states):
            for k in range(8 if i in heavy else rng.randint(1, 3)):
                edges.append([q, symbols[k], states[rng.randrange(n)]])
        path = _write(env, f"{name}.json", {"name": "busy", "states": states, "initial": "v0",
                                            "inputs": symbols, "outputs": {}, "edges": edges})
        expected = [["od", states[i]] for i in heavy]
        return _json(kind, ["validate", "--machine", path, "--format", "json"], expected,
                     lambda d: [[v["rule"], v["subject"]] for v in d["violations"]])
    if kind == "simulate-file":
        rng = random.Random(spec["seed"])
        sub = [3, "union", [[0, _leaf(rng.randint(2, 7))], [2, _leaf(rng.randint(2, 7))]]]
        tree = [2, "union", [[0, sub], [1, _leaf(rng.randint(2, 9))]]]
        path = _write(env, f"{name}.json", cluster_doc(tree, 2))
        counts, emissions = oracles.simulate_counts(tree, spec["ticks"])
        expected = {
            "ticks_run": spec["ticks"],
            "occupancy": {q: c / spec["ticks"] for q, c in zip(oracles.wheel_names(2), counts)},
            "emissions": emissions,
            "halted": False,
        }
        return _json(kind, ["simulate", "--cluster", path, "--ticks", str(spec["ticks"]),
                            "--format", "json"], expected)
    if kind == "cycle-length-file":
        rng = random.Random(spec["seed"])
        sizes = _coprime(rng, 3, 2, 30)
        outer = rng.randint(2, 5)
        tree = [outer, "union", [[i, _leaf(s)] for i, s in enumerate(sizes[:outer])]]
        path = _write(env, f"{name}.json", cluster_doc(tree, 1))
        return _exact(kind, ["cycle-length", "--cluster", path],
                      str(oracles.two_level_cycle(outer, sizes[:outer])))
    if kind == "fluent-file":
        rng = random.Random(spec["seed"])
        scale = rng.randint(1, 3)
        mode = rng.choice(("forall", "exists", "preponderant"))
        if spec["cyclic"]:
            period = rng.randint(5, 500)
            lo = rng.randrange(period)
            hi = lo + rng.randint(1, period - 1)
            store = {"base_scale": 0, "cyclic": {"f": {"period": period, "phase": [lo, hi]}}}
            index = rng.randint(-50, 50)
            value = oracles.cyclic_truth(period, lo, hi, index * 10**scale, 10**scale, mode)
        else:
            domain = 10**4
            ranges = wl_stores.true_ranges(domain, rng.randint(5, 50), spec["seed"])
            store = {"base_scale": 0, "fluents": {"f": {"domain": [0, domain],
                                                        "true": [list(r) for r in ranges]}}}
            index = rng.randrange(domain // 10**scale)
            value = oracles.explicit_truth(ranges, index * 10**scale, 10**scale, mode)
        path = _write(env, f"{name}.json", store)
        return _exact(kind, ["fluent", "--store", path, "--name", "f", "--at", f"{scale}.{index}",
                             "--mode", mode], value)
    if kind == "missing-file":
        missing = env.path(f"{name}-absent")
        args = {
            "tape": ["tape", "--script", missing],
            "fluent": ["fluent", "--store", missing, "--name", "f", "--at", "1.0"],
            "parse": ["parse", "--lexicon", missing, "--sentence", "the dog"],
            "activate": ["activate", "--net", missing],
        }[spec["command"]]
        return Op(kind, lambda a: a.cli(args, KNOWN_BAD_CAP_S), _error_line,
                  known_bad=spec["known_bad"], cap_s=KNOWN_BAD_CAP_S, in_process=False)
    if kind == "fluent-scale-0":
        rng = random.Random(spec["seed"])
        period = spec["period"]
        lo = rng.randrange(period)
        hi = lo + rng.randint(1, period - 1)
        path = _write(env, f"{name}.json", {"base_scale": -18,
                                            "cyclic": {"day": {"period": period, "phase": [lo, hi]}}})
        width = 10**18
        value = oracles.cyclic_truth(period, lo, hi, spec["index"] * width, width, spec["mode"])
        args = ["fluent", "--store", path, "--name", "day", "--at", f"0.{spec['index']}",
                "--mode", spec["mode"]]
        return Op(kind, lambda a: a.cli(args, KNOWN_BAD_CAP_S, CHILD_MEMORY_MB),
                  lambda r: r.code == 0 and r.stdout == value + "\n",
                  known_bad=spec["known_bad"], cap_s=KNOWN_BAD_CAP_S, in_process=False)
    raise ValueError(f"unknown op kind {kind!r}")


def setup(plan_ops, api, env) -> list[Op]:
    return [build_op(spec, env, number) for number, spec in enumerate(plan_ops)]


def interpreter_floor(env) -> tuple[float, float]:
    """Median wall of a bare interpreter, and what ``import cmoore`` adds."""

    def median_wall(code):
        walls = []
        for _ in range(FLOOR_SAMPLES):
            started = time.perf_counter()
            env.run_child([env.python, "-c", code], DEFAULT_CAP_S)
            walls.append(time.perf_counter() - started)
        return statistics.median(walls)

    bare = median_wall("pass")
    return bare, median_wall("import cmoore") - bare
