"""cluster-sim: the tick scheduler on wheel clusters.

Two- and three-level clusters under the union and current-state policies,
2-7 leaves of 2-101 states.  Half of the simulated clusters return to their
start far sooner than the ticks requested, half far later, so a lasso or
memo optimisation shows on the first half and not on the second.
"""
from __future__ import annotations

import oracles
from harness import Op, once

KNOWN_BAD_CAP_S = 1.0


# Simulated shapes: (top policy, inner policy or None for two levels, leaves
# per inner node, short cycle?, ticks).  Shapes are fixed so that a round
# costs about the same on every seed; the seed draws wheel sizes and where
# the inner nodes sit.  Ticks are set so that latencies form three
# plateaus, light (about 1x), middle (2x) and heavy (5x), which keeps p50
# and p90 inside a group of like ops rather than on the edge between two.
SIMULATED = [
    ("current-state", None, (2,), True, 4300),  # light
    ("union", None, (2,), False, 3500),
    ("union", None, (3,), True, 3200),  # middle
    ("union", None, (4,), False, 3800),
    ("current-state", None, (3,), False, 8800),
    ("current-state", None, (4,), True, 8100),
    ("current-state", None, (5,), False, 8300),
    ("union", "union", (2, 3), True, 2250),
    ("union", "current-state", (3, 3), False, 3600),
    ("current-state", "union", (2, 2), False, 5000),
    ("current-state", "current-state", (3, 4), True, 5700),
    ("union", "union", (3, 4), False, 4800),  # heavy
    ("current-state", "current-state", (3, 4), True, 14_000),
]
PRODUCT_TICKS = 3000  # light
# Return-time bands (light, middle, heavy) for cycle_length, and (light,
# heavy) for unfold and classify; their cost grows with the return time.
CYCLE_BANDS = [(100_000, 120_000), (160_000, 180_000), (440_000, 480_000)]
UNFOLD_BANDS = {"unfold": [(2500, 2800), (8800, 9400)], "classify": [(2500, 2800), (5500, 6000)]}


def _leaf(size):
    return [size, "external", []]


# Leaf sizes of short-cycle shapes.  How often small leaves fire sets the
# cost of a tick, so they are fixed per count and only shuffled; the seed
# draws the sizes of long-cycle leaves, which fire too rarely to matter.
SHORT_SIZES = {2: (3, 5), 3: (3, 5, 7), 4: (2, 3, 5, 7), 5: (2, 3, 4, 5, 7)}


def _sizes(rng, count, short):
    if short:
        return rng.sample(SHORT_SIZES[count], count)
    return [rng.randint(53, 101) for _ in range(count)]


def _two_level(rng, policy, sizes):
    """An outer wheel holding one leaf per listed size on distinct states.

    Under current-state every outer state holds a leaf, otherwise the
    outer wheel would park for good on a state with nothing inside.
    """
    outer = len(sizes) + (0 if policy == "current-state" else 1)
    states = sorted(rng.sample(range(outer), len(sizes)))
    return [outer, policy, [[s, _leaf(size)] for s, size in zip(states, sizes)]]


def _tree(rng, top, inner, leaves, short):
    if inner is None:
        return _two_level(rng, top, _sizes(rng, leaves[0], short))
    subs = [_two_level(rng, inner, _sizes(rng, k, short)) for k in leaves]
    outer = len(subs) + (0 if top == "current-state" else 1)
    states = sorted(rng.sample(range(outer), len(subs)))
    return [outer, top, [[s, sub] for s, sub in zip(states, subs)]]


def _union_with_cycle(rng, low, high):
    """A two-level union wheel cluster whose return time lies in [low, high]."""
    while True:
        sizes = [rng.randint(5, 101) for _ in range(rng.randint(2, 3))]
        tree = _two_level(rng, "union", sizes)
        if low <= oracles.two_level_cycle(tree[0], sizes) <= high:
            return tree


def plan(rng) -> list[dict]:
    ops = []
    for top, inner, leaves, short, ticks in SIMULATED:
        ops.append({"kind": "simulate", "tree": _tree(rng, top, inner, leaves, short), "ticks": ticks})
    for low, high in CYCLE_BANDS:
        ops.append({"kind": "cycle_length", "tree": _union_with_cycle(rng, low, high)})
    for kind, bands in UNFOLD_BANDS.items():
        for low, high in bands:
            ops.append({"kind": kind, "tree": _union_with_cycle(rng, low, high)})
    for _ in range(rng.randint(1, 2)):
        ops.append({"kind": "product", "left": rng.randint(2, 101), "right": rng.randint(2, 101),
                    "ticks": PRODUCT_TICKS})
    ops.append({"kind": "cycle_length", "known_bad": "cycle_length-3level",
                "tree": _tree(rng, "union", "union", (2, 2), True)})
    rng.shuffle(ops)
    return ops


def build(api, tree, scale):
    size, policy, inner = tree
    machine = api.wheel(size)
    if policy == "external":
        return api.leaf(machine, scale)
    names = oracles.wheel_names(size)
    children = tuple((names[s], build(api, sub, scale - 1)) for s, sub in inner)
    return api.node(machine, scale, children, policy)


def _depth(tree):
    return 1 + max((_depth(sub) for _, sub in tree[2]), default=0)


def _node(api, tree):
    return build(api, tree, _depth(tree) - 1)


def _simulate_op(spec, tree, node_of):
    ticks = spec["ticks"]
    expect = once(lambda: oracles.simulate_counts(tree, ticks))

    def check(report):
        counts, emissions = expect()
        return (
            report.ticks_run == ticks
            and not report.halted
            and [c for _, c in report.state_counts] == counts
            and report.emissions == emissions
        )

    return Op(spec["kind"], lambda a: a.simulate(node_of(a), ticks), check)


def setup(plan_ops, api, env) -> list[Op]:
    ops = []
    for spec in plan_ops:
        kind = spec["kind"]
        if kind == "product":
            left, right = api.wheel(spec["left"]), api.wheel(spec["right"])
            tree = [2, "union", [[0, _leaf(spec["left"])], [1, _leaf(spec["right"])]]]
            ops.append(_simulate_op(spec, tree, lambda a, l=left, r=right: a.product(l, r)))
            continue
        tree = spec["tree"]
        node = _node(api, tree)
        if kind == "simulate":
            ops.append(_simulate_op(spec, tree, lambda a, n=node: n))
        elif kind == "cycle_length" and spec.get("known_bad"):
            expect = once(lambda t=tree: oracles.orbit(t, 10**6)[0])
            ops.append(Op(kind, lambda a, n=node: a.cycle_length(n),
                          lambda r, e=expect: r.base_ticks == e(),
                          known_bad=spec["known_bad"], cap_s=KNOWN_BAD_CAP_S))
        elif kind == "cycle_length":
            sizes = [sub[0] for _, sub in tree[2]]
            value = oracles.two_level_cycle(tree[0], sizes)
            ops.append(Op(kind, lambda a, n=node: a.cycle_length(n),
                          lambda r, v=value: r.base_ticks == v and r.digit_count == len(str(v))))
        elif kind == "unfold":
            expect = once(lambda t=tree: oracles.orbit(t, 10**6))

            def check(machine, e=expect):
                cycle, signalling = e()
                return (len(machine.states) == cycle and len(machine.edges) == cycle
                        and len(machine.outputs) == signalling)

            ops.append(Op(kind, lambda a, n=node: a.unfold(n), check))
        elif kind == "classify":
            expect = once(lambda t=tree: oracles.orbit(t, 10**6)[0])
            ops.append(Op(kind, lambda a, n=node: a.classify(n),
                          lambda r, e=expect: str(r) == f"C({e()})"))
    return ops
