"""kernels: single-machine analysis and the machine layer, no cluster ticks.

Deterministic and nondeterministic inputs run through the same kernels:
lazy wheels (one self-loop) against plain wheels for the stationary
distribution, nondeterministic unary machines for path counting, complete
DFAs for synchronizing words, and machine build/validate/JSON round trips
at 1k-10k states.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

import oracles
from harness import Op, once

KNOWN_BAD_CAP_S = 1.0
INFEASIBLE_EPS = Fraction(1, 10**9)


def plan(rng) -> list[dict]:
    """Sizes are fixed per slot, so a round costs about the same on every
    seed; the seed draws machine contents, loop positions and seeds.

    Slots are sized into plateaus of like latency: light (a few ms), middle
    (about 25 ms), upper (50-100 ms) and heavy (about 250 ms), so that p50
    falls inside the middle group and p90 inside the heavy one.
    """
    ops = []
    # light
    for eps in (Fraction(1, 100), Fraction(1, 400)):
        ops.append({"kind": "approx", "probs": _distribution(rng), "eps": str(eps)})
    ops.append({"kind": "stationary-wheel", "n": 1000})
    # middle
    for n, steps in ((500, 200), (600, 150), (250, 500), (300, 400)):
        ops.append({"kind": "path-count", "n": n, "steps": steps, "seed": rng.getrandbits(32)})
    for _ in range(rng.randint(1, 2)):
        ops.append({"kind": "monte-carlo", "n": 30, "loop": rng.randrange(30), "steps": 200_000,
                    "seed": rng.getrandbits(32)})
    ops.append({"kind": "roundtrip", "n": 3000, "seed": rng.getrandbits(32)})
    ops.append({"kind": "stationary-wheel", "n": 6000})
    ops.append({"kind": "bisim", "left": 70, "right": 70})
    ops.append({"kind": "stationary-lazy", "n": 14, "loop": rng.randrange(14)})
    ops.append({"kind": "sync-word", "sizes": [120], "seed": rng.getrandbits(32)})
    ops.append({"kind": "sync-word", "sizes": [8, 11, 14, 17, 20] * 8, "seed": rng.getrandbits(32)})
    # upper
    for n in (5000, 10_000):
        ops.append({"kind": "roundtrip", "n": n, "seed": rng.getrandbits(32)})
    ops.append({"kind": "stationary-wheel", "n": 10_000})
    # heavy
    ops.append({"kind": "stationary-lazy", "n": 28, "loop": rng.randrange(28)})
    ops.append({"kind": "approx", "probs": _awkward_distribution(rng), "eps": str(INFEASIBLE_EPS)})
    ops.append({"kind": "bisim", "left": 260, "right": 260})
    ops.append({"kind": "bisim", "left": 140, "right": 280})
    ops.append({"kind": "sync-word", "sizes": [290], "seed": rng.getrandbits(32)})
    # known-bad, one per round
    ops.append({"kind": "stationary-lazy", "n": 100, "loop": 0, "known_bad": "stationary-lazy-100"})
    ops.append({"kind": "stationary-lazy", "n": 10_000, "loop": 0,
                "known_bad": "stationary-lazy-10000"})
    ops.append({"kind": "sync-word", "sizes": [600], "seed": rng.getrandbits(32),
                "known_bad": "sync-word-600"})
    ops.append({"kind": "bisim", "left": 10_000, "right": 10_000, "known_bad": "bisim-10000"})
    rng.shuffle(ops)
    return ops


def _distribution(rng) -> list[str]:
    """2-5 outcomes, each at least 5%, in thousandths."""
    r = rng.randint(2, 5)
    spare = 1000 - 50 * r
    cuts = sorted(rng.randint(0, spare) for _ in range(r - 1))
    shares = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
    return [str(Fraction(50 + share, 1000)) for share in shares]


def _awkward_distribution(rng) -> list[str]:
    """Probabilities over a large prime denominator: no wheel within the
    state budget gets within 1e-9 of them."""
    q = 99_991
    a = rng.randint(q // 5, 2 * q // 5)
    b = rng.randint(q // 5, 2 * q // 5)
    return [str(Fraction(a, q)), str(Fraction(b, q)), str(Fraction(q - a - b, q))]


def random_unary(n: int, seed: int) -> list[list[int]]:
    """A strongly connected nondeterministic unary machine: a cycle plus
    up to two extra successors per state."""
    rng = random.Random(seed)
    succ = []
    for i in range(n):
        targets = {(i + 1) % n}
        for _ in range(rng.randint(0, 2)):
            targets.add(rng.randrange(n))
        succ.append(sorted(targets))
    return succ


def random_dfa(n: int, seed: int) -> dict:
    """A complete DFA over a, b, c that always synchronizes: a and b form a
    relabelled Cerny automaton (a cycles, b merges one pair); c maps every
    state into a random third of the states, which keeps the subset search
    small and its cost about the same from seed to seed."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    image = rng.sample(range(n), max(2, n // 3))
    move = {}
    for k, q in enumerate(order):
        move[(q, "a")] = order[(k + 1) % n]
        move[(q, "b")] = q
        move[(q, "c")] = rng.choice(image)
    move[(order[-1], "b")] = order[0]
    return move


def random_machine(n: int, seed: int) -> dict:
    """CMA-JSON document of a random machine; about one state in 200 has
    out-degree 8 and so breaks the strict out-degree budget."""
    rng = random.Random(seed)
    symbols = ["x", "y", "z"][: rng.randint(1, 3)]
    states = [f"m{i}" for i in range(n)]
    edges = []
    for i, q in enumerate(states):
        degree = 8 if rng.random() < 0.005 else rng.randint(1, 3)
        seen = set()
        for _ in range(degree):
            edge = (q, rng.choice(symbols), states[(i + rng.randint(1, 50)) % n])
            while edge in seen:
                edge = (q, rng.choice(symbols), states[rng.randrange(n)])
            seen.add(edge)
            edges.append(edge)
    outputs = {q: rng.choice(("1", "2")) for q in states if rng.random() < 0.1}
    return {"name": f"random-{n}", "states": states, "initial": states[0], "inputs": symbols,
            "outputs": outputs, "edges": [list(e) for e in edges]}


def lazy_succ(n, loop):
    return [[(i + 1) % n] + ([i] if i == loop else []) for i in range(n)]


def _stationary(api, spec):
    n = spec["n"]
    lazy = spec["kind"] == "stationary-lazy"
    if lazy:
        machine = api.wheel(n, (oracles.wheel_names(n)[spec["loop"]],))
        succ = lazy_succ(n, spec["loop"])
        expected = oracles.lazy_wheel_stationary(n, spec["loop"])
    else:
        machine = api.wheel(n)
        succ = [[(i + 1) % n] for i in range(n)]
        expected = [1 / n] * n

    def check(vector):
        return oracles.stationary_ok([v for _, v in vector.entries], succ, expected)

    return Op(spec["kind"], lambda a: a.stationary_distribution(machine), check)


def _path_count(api, spec):
    n, steps = spec["n"], spec["steps"]
    succ = random_unary(n, spec["seed"])
    names = [f"q{i}" for i in range(n)]
    edges = [(names[p], "e", names[q]) for p, targets in enumerate(succ) for q in targets]
    machine = api.make(f"unary-{n}", names, ("e",), names[0], {}, edges)
    expect = once(lambda: oracles.path_counts(succ, 0, steps))

    def check(vector):
        counts = expect()
        total = sum(counts)
        values = [v for _, v in vector.entries]
        if steps <= 200:
            return values == [Fraction(c, total) for c in counts]
        return all(abs(float(v) - c / total) <= 1e-9 for v, c in zip(values, counts))

    return Op("path-count", lambda a: a.path_count_occupancy(machine, steps), check)


def _monte_carlo(api, spec):
    n, loop, steps, seed = spec["n"], spec["loop"], spec["steps"], spec["seed"]
    machine = api.wheel(n, (oracles.wheel_names(n)[loop],))

    def check(vector):
        counts = [round(v * (steps + 1)) for _, v in vector.entries]
        # The walk starts on the first state; every lap visits each state
        # but the looped one exactly once, in cycle order.
        rest = counts[:loop] + counts[loop + 1:]
        return (
            sum(counts) == steps + 1
            and all(x >= y for x, y in zip(rest, rest[1:]))
            and rest[0] - rest[-1] <= 1
            and counts[loop] >= rest[-1]
            and abs(counts[loop] / (steps + 1) - 2 / (n + 1)) < 0.02
        )

    return Op("monte-carlo", lambda a: a.monte_carlo_occupancy(machine, steps, seed), check)


def _bisim(api, spec):
    left, right = api.wheel(spec["left"]), api.wheel(spec["right"])
    equivalent, blocks = oracles.wheel_bisim(spec["left"], spec["right"])

    def check(result):
        return result.equivalent == equivalent and len(result.partition) == blocks

    return Op("bisim", lambda a: a.bisimilar(left, right), check)


def _sync(api, spec):
    cases = []
    for k, n in enumerate(spec["sizes"]):
        move = random_dfa(n, spec["seed"] + k)
        names = [f"s{i}" for i in range(n)]
        edges = [(names[q], sym, names[t]) for (q, sym), t in sorted(move.items())]
        cases.append((move, names, api.make(f"dfa-{n}", names, ("a", "b", "c"), names[0], {}, edges)))

    def check(results):
        for (move, names, _), result in zip(cases, results):
            sink = oracles.synchronizes(move, range(len(names)), result.word)
            if sink is None or names[sink] != result.sink:
                return False
        return True

    return Op("sync-word", lambda a: [a.synchronizing_word(m) for _, _, m in cases], check)


def _approx(spec):
    probs = [Fraction(p) for p in spec["probs"]]
    eps = Fraction(spec["eps"])
    labels = [f"o{i + 1}" for i in range(len(probs))]
    expect = once(lambda: oracles.smallest_size(probs, eps))

    def run(a):
        return a.approximate_distribution(a.distribution(list(zip(labels, probs))), eps)

    def check(result):
        size = expect()
        if size is None:
            return (type(result).__name__ == "InfeasibleError"
                    and result.best_epsilon > eps and len(probs) <= result.best_size <= 10_000)
        counts = [sum(1 for _, out in result.outputs if out == label) for label in labels]
        k = len(result.states)
        return k == size and all(abs(Fraction(c, k) - p) <= eps for c, p in zip(counts, probs))

    return Op("approx", run, check)


def _roundtrip(spec):
    doc = random_machine(spec["n"], spec["seed"])
    edges = [tuple(e) for e in doc["edges"]]
    degree = {}
    for src, _, _ in edges:
        degree[src] = degree.get(src, 0) + 1
    violations = [("od", q) for q in doc["states"] if degree.get(q, 0) >= 8]

    def run(a):
        machine = a.make(doc["name"], doc["states"], doc["inputs"], doc["initial"],
                         doc["outputs"], edges)
        report = a.validate(machine)
        text = a.to_json(machine)
        return machine, report, text, a.from_json(text)

    def check(result):
        machine, report, text, back = result
        return (
            [(v.rule, v.subject) for v in report] == violations
            and json.loads(text) == doc
            and back == machine
        )

    return Op("roundtrip", run, check)


def setup(plan_ops, api, env) -> list[Op]:
    ops = []
    for spec in plan_ops:
        kind = spec["kind"]
        if kind.startswith("stationary"):
            op = _stationary(api, spec)
        elif kind == "path-count":
            op = _path_count(api, spec)
        elif kind == "monte-carlo":
            op = _monte_carlo(api, spec)
        elif kind == "bisim":
            op = _bisim(api, spec)
        elif kind == "sync-word":
            op = _sync(api, spec)
        elif kind == "approx":
            op = _approx(spec)
        else:
            op = _roundtrip(spec)
        if spec.get("known_bad"):
            op.known_bad = spec["known_bad"]
            op.cap_s = KNOWN_BAD_CAP_S
        ops.append(op)
    return ops
