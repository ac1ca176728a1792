"""stores: every layer here writes beside its reads.

Tape and byte-cell scripts (write-heavy or move/idle-heavy, 1 or 3
replicas) are followed by a fault and a read of all 256 positions; fluents
are installed beside window queries on explicit and cyclic fluents; the
island parser and the activation network run on generated inputs.
"""
from __future__ import annotations

import random

import oracles
from harness import Op, once

KNOWN_BAD_CAP_S = 1.5
CHILD_MEMORY_MB = 512
EVAL_DOMAIN = 10**6
MODES = ("forall", "exists", "preponderant")


# Slots are fixed so that a round costs about the same on every seed, and
# sized into plateaus of like latency, light (a few ms), middle (about
# 25 ms), upper (about 60 ms) and heavy (about 170 ms), with the 10**6-unit
# window and the known-bad op on top: p50 falls inside the middle group and
# p90 inside the heavy one.
# (symbols, style, replicas) per tape script.
TAPES = [(6000, "write", 1), (6000, "move", 3), (12_000, "move", 3),
         (24_000, "write", 3), (32_000, "move", 1), (30_000, "write", 1)]
CELLS = ["write", "move"]  # 10k-symbol byte-cell scripts
# (domain, true ranges, query windows of 10**3 units) per installed fluent.
ASSIGNS = [(10**4, 10, 12), (10**5, 1000, 12), (10**6, 100, 12), (10**6, 1000, 120)]
# (scale, windows, mode, cyclic?) per query op; a scale-s window spans
# 10**s base units.
WINDOWS = [(1, 1000, "forall", False)] + [
    (scale, 5 * 10**4 // 10**scale, mode, cyclic)
    for scale, mode in ((1, "exists"), (2, "preponderant"), (3, "forall"), (4, "exists"))
    for cyclic in (False, True)
] + [(5, 4, "preponderant", True), (5, 8, "forall", False), (6, 1, "preponderant", False)]


def plan(rng) -> list[dict]:
    ops = []
    for length, style, replicas in TAPES:
        ops.append({"kind": "tape", "length": length, "style": style, "replicas": replicas,
                    "seed": rng.getrandbits(32)})
    for style in CELLS:
        ops.append({"kind": "byte-cell", "length": 10_000, "style": style, "seed": rng.getrandbits(32)})
    for domain, count, queries in ASSIGNS:
        ops.append({"kind": "assign", "domain": domain, "ranges": count, "queries": queries,
                    "seed": rng.getrandbits(32)})
    windows = WINDOWS + [(2, 500, "exists", True)] * rng.randint(0, 1)
    for scale, count, mode, cyclic in windows:
        ops.append({"kind": "evaluate", "scale": scale, "windows": count, "mode": mode,
                    "cyclic": cyclic, "seed": rng.getrandbits(32)})
    for _ in range(2):
        ops.append({"kind": "parse", "seed": rng.getrandbits(32)})
    for _ in range(2):
        ops.append({"kind": "activate", "nodes": 300, "steps": 40, "seed": rng.getrandbits(32)})
    ops.append({"kind": "evaluate-scale-0", "known_bad": "cyclic-fluent-scale-0",
                "period": rng.randint(50, 5000), "index": rng.randint(-5, 5),
                "mode": rng.choice(MODES), "seed": rng.getrandbits(32)})
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ generators

def script(length: int, style: str, seed: int) -> list[str]:
    """Write-heavy scripts are 60% writes; move-heavy ones 70% moves and
    idle ticks with a few writes in between."""
    rng = random.Random(seed)
    weights = (10, 15, 15, 30, 30) if style == "write" else (25, 35, 35, 3, 2)
    return rng.choices(("e", "mu", "nu", "alpha", "omega"), weights, k=length)


def true_ranges(domain: int, count: int, seed: int) -> list[tuple[int, int]]:
    """``count`` sorted ranges covering half the domain, one inside each of
    ``count`` equal slots at a random offset, so no two ranges touch."""
    rng = random.Random(seed)
    slot = domain // count
    half = slot // 2
    return [(k * slot + offset, k * slot + offset + half)
            for k in range(count) for offset in [rng.randint(1, slot - half - 1)]]


# Words of one slot share their categories, so every seed's sentence of a
# given shape has the same chart size; senses differ and ride along.
SLOTS = {
    "Art": (("the", "a", "this", "that"), ("Art",)),
    "N": (("man", "park", "record", "duck", "watch"), ("N", "V")),
    "V": (("saw", "liked", "spotted", "fed"), ("V", "N")),
    "A": (("old", "red", "big", "cold"), ("A", "N")),
    "P": (("with", "in", "near", "on"), ("P",)),
}
LEXICON = {
    word: [(category, [f"{word}_{category.lower()}{k}" for k in range(1 + len(word) % 3)])
           for category in categories]
    for words, categories in SLOTS.values()
    for word in words
}
PATTERNS = [
    (("Art", "N"), "NP"),
    (("Art", "A", "N"), "NP"),
    (("NP", "PP"), "NP"),
    (("P", "NP"), "PP"),
    (("V", "NP"), "VP", 0),
    (("VP", "PP"), "VP", 0),
    (("NP", "VP"), "S"),
    (("A", "N"), "N"),
]
# Sentence shapes: NP V NP (P NP)*, "3" marking an NP with an adjective.
SHAPES = ("2 3 P2", "2 2 P3 P2", "3 2 P2 P2 P3", "2 3 P2 P3 P2 P2")


def sentences(seed: int) -> list[list[str]]:
    """One sentence per shape, 9-19 words, whose attachment ambiguity gives
    charts of 37, 74, 228 and 706 items whatever words the seed picks."""
    rng = random.Random(seed)

    def pick(slot):
        return rng.choice(SLOTS[slot][0])

    def np(size):
        return [pick("Art")] + ([pick("A")] if size == "3" else []) + [pick("N")]

    out = []
    for shape in SHAPES:
        subject, obj, *phrases = shape.split()
        words = np(subject) + [pick("V")] + np(obj)
        for phrase in phrases:
            words += [pick("P")] + np(phrase[1])
        out.append(words)
    return out


def network(nodes: int, seed: int):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    edges = set()
    while len(edges) < 3 * nodes:
        src, dst = rng.sample(names, 2)
        edges.add((src, dst))
    injections = [rng.choice(names) for _ in range(nodes // 3)]
    return names, sorted(edges), injections


# ------------------------------------------------------------ ops

def _tape_op(api, spec):
    symbols = script(spec["length"], spec["style"], spec["seed"])
    replicas = spec["replicas"]
    rng = random.Random(spec["seed"] + 1)
    fault = (rng.randrange(replicas), rng.randrange(256))
    blank = api.build_t1(replicas)

    def run(a):
        tape, emitted = a.run_script(blank, symbols)
        faulty = a.corrupt(tape, *fault)
        read = a.majority_read if replicas == 3 else a.read
        return tape, emitted, [read(faulty, p) for p in range(256)]

    def expect():
        masks, head, counter_head, emitted = oracles.tape_model(symbols, replicas)
        broken = list(masks)
        broken[fault[0]] ^= 1 << fault[1]
        return masks, head, counter_head, emitted, oracles.majority_bits(broken)

    expect = once(expect)

    def check(result):
        tape, emitted, bits = result
        masks, head, counter_head, want_emitted, want_bits = expect()
        return (tape.contents == masks and tape.head == head
                and tape.counter_head == counter_head
                and emitted == want_emitted and bits == want_bits)

    return Op("tape", run, check)


def _cell_op(api, spec):
    symbols = script(spec["length"], spec["style"], spec["seed"])
    blank = api.byte_cell()
    expect = once(lambda: oracles.cell_model(symbols))

    def check(result):
        cell, emitted = result
        bits, head, want_emitted = expect()
        return cell.bits == bits and cell.head == head and emitted == want_emitted

    return Op("byte-cell", lambda a: a.run_script(blank, symbols), check)


def _assign_op(spec, time_point):
    domain = spec["domain"]
    ranges = true_ranges(domain, spec["ranges"], spec["seed"])
    rng = random.Random(spec["seed"] + 1)
    queries = [(MODES[k % 3], rng.randrange(domain // 1000)) for k in range(spec["queries"])]

    def run(a):
        store = a.store(None, 0)
        a.assign(store, "f", (0, domain), ranges)
        return [a.evaluate(store, "f", time_point(3, i), mode).value for mode, i in queries]

    expected = [oracles.explicit_truth(ranges, 1000 * i, 1000, mode) for mode, i in queries]
    return Op("assign", run, lambda values: values == expected)


def _evaluate_op(spec, stores, time_point):
    scale, mode, count = spec["scale"], spec["mode"], spec["windows"]
    width = 10**scale
    rng = random.Random(spec["seed"])
    first = rng.randrange(EVAL_DOMAIN // width - count + 1)
    indices = range(first, first + count)
    store, truth = stores["cyclic" if spec["cyclic"] else "explicit"]

    def run(a):
        return [a.evaluate(store, "f", time_point(scale, i), mode).value for i in indices]

    expected = once(lambda: [truth(i * width, width, mode) for i in indices])
    return Op("evaluate", run, lambda values: values == expected())


def _scale_zero_op(spec):
    period = spec["period"]
    rng = random.Random(spec["seed"])
    lo = rng.randrange(period)
    hi = lo + rng.randint(1, period - 1)
    code = (
        "from cmoore import FluentStore, TimePoint, evaluate\n"
        "store = FluentStore(base_scale=-18)\n"
        f"store.cyclic_fluent('day', {period}, ({lo}, {hi}))\n"
        f"print(evaluate(store, 'day', TimePoint(0, {spec['index']}), {spec['mode']!r}).value)\n"
    )
    width = 10**18
    expected = oracles.cyclic_truth(period, lo, hi, spec["index"] * width, width, spec["mode"])

    def run(a):
        return a.evaluate_in_child(code, KNOWN_BAD_CAP_S, CHILD_MEMORY_MB)

    def check(result):
        return result.code == 0 and result.stdout.strip() == expected

    return Op("evaluate-scale-0", run, check, known_bad=spec["known_bad"],
              cap_s=KNOWN_BAD_CAP_S, in_process=False)


def _parse_op(spec, grammar):
    batch = sentences(spec["seed"])
    lexicon, patterns = grammar
    chains = [(p[0], p[1]) for p in PATTERNS]
    expect = once(lambda: [oracles.cyk_counts(words, LEXICON, chains) for words in batch])

    def check(results):
        return [(len(r.chart), len(r.full)) for r in results] == expect()

    return Op("parse", lambda a: [a.parse(words, lexicon, patterns) for words in batch], check)


def _activate_op(spec):
    names, edges, injections = network(spec["nodes"], spec["seed"])
    steps = spec["steps"]

    def run(a):
        net = a.network(names, edges)
        for node in injections:
            net = a.inject(net, node)
        fired = []
        for _ in range(steps):
            net, now = a.step_network(net)
            fired.append(sorted(now))
        return fired, {name: phase.value for name, phase in net.phases}

    expected = once(lambda: oracles.activation_run(names, edges, injections, steps))
    return Op("activate", run, lambda result: result == expected())


def setup(plan_ops, api, env) -> list[Op]:
    from cmoore import TimePoint

    explicit_ranges = true_ranges(EVAL_DOMAIN, 1000, 7)
    explicit = api.store(None, 0)
    api.assign(explicit, "f", (0, EVAL_DOMAIN), explicit_ranges)
    period = 997
    cyclic = api.store(None, 0)
    api.cyclic_fluent(cyclic, "f", period, (300, 800))
    stores = {
        "explicit": (explicit, lambda s, w, m: oracles.explicit_truth(explicit_ranges, s, w, m)),
        "cyclic": (cyclic, lambda s, w, m: oracles.cyclic_truth(period, 300, 800, s, w, m)),
    }
    grammar = api.load_grammar({
        "words": {w: [[c, s] for c, s in entries] for w, entries in LEXICON.items()},
        "patterns": [[list(p[0]), *p[1:]] for p in PATTERNS],
    })
    ops = []
    for spec in plan_ops:
        kind = spec["kind"]
        if kind == "tape":
            ops.append(_tape_op(api, spec))
        elif kind == "byte-cell":
            ops.append(_cell_op(api, spec))
        elif kind == "assign":
            ops.append(_assign_op(spec, TimePoint))
        elif kind == "evaluate":
            ops.append(_evaluate_op(spec, stores, TimePoint))
        elif kind == "parse":
            ops.append(_parse_op(spec, grammar))
        elif kind == "activate":
            ops.append(_activate_op(spec))
        else:
            ops.append(_scale_zero_op(spec))
    return ops
