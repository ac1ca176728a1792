"""Reference answers computed without the library.

Each model works on the plain data the workload generators produce (sizes,
edge lists, scripts, intervals), never on library objects, so a defect in
the library cannot leak into the answer it is checked against.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

THETA = Fraction(2, 3)

# ---------------------------------------------------------------- clusters
#
# A cluster tree is [size, policy, [[state_index, subtree], ...]]: every
# machine is a wheel of ``size`` states that signals on entering its last
# state, as the menagerie builds them.


class FlatCluster:
    """Integer stepper: one position per wheel, ticked recursively."""

    def __init__(self, tree):
        self.size: list[int] = []
        self.policy: list[str] = []
        self.inner: list[list[tuple[int, int]]] = []
        self.root = self._add(tree)
        self.pos = [0] * len(self.size)

    def _add(self, tree) -> int:
        size, policy, inner = tree
        index = len(self.size)
        self.size.append(size)
        self.policy.append(policy)
        self.inner.append([])
        self.inner[index] = [(state, self._add(sub)) for state, sub in inner]
        return index

    def _tick(self, node: int) -> bool:
        policy = self.policy[node]
        if policy == "external":
            fired = True
        elif policy == "union":
            fired = False
            for _, child in self.inner[node]:
                if self._tick(child):
                    fired = True
        else:  # current-state
            fired = False
            here = self.pos[node]
            for state, child in self.inner[node]:
                if state == here:
                    fired = self._tick(child)
                    break
        if not fired:
            return False
        p = self.pos[node] + 1
        if p == self.size[node]:
            p = 0
        self.pos[node] = p
        return p == self.size[node] - 1

    def tick(self) -> bool:
        return self._tick(self.root)

    def at_start(self) -> bool:
        return not any(self.pos)


def simulate_counts(tree, ticks: int) -> tuple[list[int], int]:
    """Per outer state tick counts and outer emissions over ``ticks``."""
    flat = FlatCluster(tree)
    counts = [0] * tree[0]
    emissions = 0
    root = flat.root
    pos = flat.pos
    for _ in range(ticks):
        if flat.tick():
            emissions += 1
        counts[pos[root]] += 1
    return counts, emissions


def orbit(tree, limit: int) -> tuple[int, int]:
    """First return to the initial configuration by stepping, and how many
    configurations on the way have the outer wheel in its signalling state."""
    flat = FlatCluster(tree)
    last = tree[0] - 1
    signalling = 1 if flat.pos[flat.root] == last else 0
    for t in range(1, limit + 1):
        flat.tick()
        if flat.at_start():
            return t, signalling
        if flat.pos[flat.root] == last:
            signalling += 1
    raise ValueError(f"no return within {limit} ticks")


def two_level_cycle(outer: int, inner_sizes) -> int:
    """Return time of a union cluster of wheels by inclusion-exclusion.

    Inner positions recur every L = lcm(sizes) ticks; within that window
    the outer wheel advances once per tick on which any inner wheel fires.
    """
    window = math.lcm(*inner_sizes)
    advances = 0
    for k in range(1, len(inner_sizes) + 1):
        for subset in combinations(inner_sizes, k):
            advances += (-1) ** (k + 1) * (window // math.lcm(*subset))
    return window * (outer // math.gcd(advances, outer))


# ---------------------------------------------------------------- memory

def tape_model(script, replicas: int):
    """Flat-array tape: 256 bits per replica, a head and its counter head.

    Returns (replica masks, head, counter head, emitted bits).
    """
    bits = [[0] * 256 for _ in range(replicas)]
    head = 0
    counter_head = 0
    emitted = []
    for symbol in script:
        if symbol in ("mu", "nu"):
            new = max(head - 1, 0) if symbol == "mu" else min(head + 1, 255)
            if new != head:
                counter_head = (head ^ new).bit_length() - 1
            head = new
        elif symbol in ("alpha", "omega"):
            value = 1 if symbol == "alpha" else 0
            for replica in bits:
                replica[head] = value
        else:
            head &= head - 1
            counter_head = max(counter_head - 1, 0)
        votes = sum(replica[head] for replica in bits)
        emitted.append(1 if 2 * votes > replicas else 0)
    masks = tuple(sum(b << i for i, b in enumerate(replica)) for replica in bits)
    return masks, head, counter_head, emitted


def cell_model(script):
    """Flat-array byte cell: returns (bits, head, emitted bits)."""
    bits = [0] * 8
    head = 0
    emitted = []
    for symbol in script:
        if symbol == "mu":
            head = max(head - 1, 0)
        elif symbol == "nu":
            head = min(head + 1, 7)
        elif symbol == "alpha":
            bits[head] = 1
        elif symbol == "omega":
            bits[head] = 0
        else:
            head = max(head - 1, 0)
        emitted.append(bits[head])
    return tuple(bits), head, emitted


def majority_bits(masks) -> list[int]:
    """Per position majority (three replicas) or value (one replica)."""
    out = []
    for position in range(256):
        votes = sum((m >> position) & 1 for m in masks)
        out.append(1 if 2 * votes > len(masks) else 0)
    return out


# ---------------------------------------------------------------- fluents

def _verdict(longest_true: int, longest_false: int, width: int, mode: str) -> str:
    if mode == "forall":
        return "true" if longest_true == width else "false"
    if mode == "exists":
        return "true" if longest_true > 0 else "false"
    if longest_true >= THETA * width:
        return "true"
    if longest_false >= THETA * width:
        return "false"
    return "undefined"


def explicit_truth(ranges, start: int, width: int, mode: str) -> str:
    """Interval arithmetic over sorted, disjoint, non-adjacent true ranges
    that lie inside the fluent's domain; the window must lie there too."""
    stop = start + width
    longest_true = 0
    longest_false = 0
    cursor = start  # first unit not yet known to be covered
    for lo, hi in ranges:
        if hi <= start:
            continue
        if lo >= stop:
            break
        a, b = max(lo, start), min(hi, stop)
        longest_true = max(longest_true, b - a)
        longest_false = max(longest_false, a - cursor)
        cursor = b
    longest_false = max(longest_false, stop - cursor)
    return _verdict(longest_true, longest_false, width, mode)


def _longest_periodic_run(offset: int, span: int, period: int, start: int, stop: int) -> int:
    """Longest overlap of [offset + k*period, +span) with [start, stop)."""
    first = (start - offset) // period
    last = (stop - offset) // period
    best = span if last - first >= 3 else 0  # a whole run fits in between
    for k in {first - 1, first, first + 1, last - 1, last, last + 1}:
        a = offset + k * period
        best = max(best, min(stop, a + span) - max(start, a))
    return best


def cyclic_truth(period: int, lo: int, hi: int, start: int, width: int, mode: str) -> str:
    """Closed form for a fluent true on indices congruent to [lo, hi)."""
    span = hi - lo
    stop = start + width
    longest_true = _longest_periodic_run(lo, span, period, start, stop)
    longest_false = _longest_periodic_run(lo + span, period - span, period, start, stop)
    return _verdict(longest_true, longest_false, width, mode)


# ---------------------------------------------------------------- analysis

def stationary_ok(values, succ, expected, tol: float = 1e-9) -> bool:
    """Closed form within ``tol`` and a stationarity residual below it."""
    n = len(succ)
    if len(values) != n or any(abs(float(v) - e) > tol for v, e in zip(values, expected)):
        return False
    pushed = [0.0] * n
    for p, targets in enumerate(succ):
        share = float(values[p]) / len(targets)
        for q in targets:
            pushed[q] += share
    return math.fsum(abs(a - float(b)) for a, b in zip(pushed, values)) < tol


def lazy_wheel_stationary(n: int, loop: int = 0) -> list[float]:
    """A wheel with one self-loop: 2/(n+1) on the looped state, 1/(n+1)
    on every other."""
    return [2 / (n + 1) if i == loop else 1 / (n + 1) for i in range(n)]


def path_counts(succ, start: int, steps: int) -> list[int]:
    """Exact number of length-``steps`` paths from ``start`` ending in each
    state, by the integer recurrence."""
    counts = [0] * len(succ)
    counts[start] = 1
    for _ in range(steps):
        new = [0] * len(succ)
        for p, c in enumerate(counts):
            if c:
                for q in succ[p]:
                    new[q] += c
        counts = new
    return counts


def synchronizes(move, states, word) -> str | None:
    """Replay: the single state the word drives every state into, or None."""
    image = set(states)
    for symbol in word:
        image = {move[(q, symbol)] for q in image}
    return next(iter(image)) if len(image) == 1 else None


def wheel_bisim(left: int, right: int) -> tuple[bool, int]:
    """Two wheels are output-bisimilar iff equal; otherwise every state of
    the union is distinguished by its distance to the next signal."""
    if left == right:
        return True, left
    return False, left + right


def feasible_size(probs, eps: Fraction, k: int) -> bool:
    """Whether some integer apportionment of k states meets eps."""
    low = high = 0
    for p in probs:
        lo = max(0, math.ceil((p - eps) * k))
        hi = min(k, math.floor((p + eps) * k))
        if lo > hi:
            return False
        low += lo
        high += hi
    return low <= k <= high


def smallest_size(probs, eps: Fraction, limit: int = 10_000) -> int | None:
    for k in range(len(probs), limit + 1):
        if feasible_size(probs, eps, k):
            return k
    return None


def count_vectors(probs, eps: Fraction, k: int) -> list[tuple[int, ...]]:
    """Every apportionment of k states meeting eps (small k only)."""
    ranges = [
        range(max(0, math.ceil((p - eps) * k)), min(k, math.floor((p + eps) * k)) + 1)
        for p in probs
    ]
    found = []

    def extend(prefix, i):
        if i == len(ranges):
            if sum(prefix) == k:
                found.append(tuple(prefix))
            return
        for c in ranges[i]:
            if sum(prefix) + c <= k:
                extend(prefix + [c], i + 1)

    extend([], 0)
    return found


# ---------------------------------------------------------------- lingua

def cyk_counts(words, lexicon, patterns):
    """Distinct derivation trees per (start, end, category).

    ``lexicon`` maps a word to its (category, senses) readings; patterns are
    (sequence, result) chains of two or three categories.  Returns the
    total over all spans (the chart size) and the full-span total.
    """
    n = len(words)
    table: dict[tuple[int, int], dict[str, int]] = {}
    for i, word in enumerate(words):
        cell: dict[str, int] = {}
        for category, _ in lexicon[word]:
            cell[category] = cell.get(category, 0) + 1
        table[(i, i + 1)] = cell
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell = {}
            for sequence, result in patterns:
                total = 0
                if len(sequence) == 2:
                    a, b = sequence
                    for k in range(i + 1, j):
                        total += table[(i, k)].get(a, 0) * table[(k, j)].get(b, 0)
                else:
                    a, b, c = sequence
                    for k in range(i + 1, j - 1):
                        left = table[(i, k)].get(a, 0)
                        if left:
                            for m in range(k + 1, j):
                                total += left * table[(k, m)].get(b, 0) * table[(m, j)].get(c, 0)
                if total:
                    cell[result] = cell.get(result, 0) + total
            table[(i, j)] = cell
    chart = sum(sum(cell.values()) for cell in table.values())
    return chart, sum(table[(0, n)].values())


def activation_run(nodes, edges, injections, steps):
    """Threshold-2 network on integer phases (0 rest, 1 aroused,
    2 transmit, 3 blocked).  Returns fired sets per step and final phases."""
    index = {name: i for i, name in enumerate(nodes)}
    phase = [0] * len(nodes)

    def bump(p, impulses):
        if p == 0:
            return 2 if impulses >= 2 else (1 if impulses == 1 else 0)
        if p == 1:
            return 2 if impulses >= 1 else 1
        return p

    for name in injections:
        phase[index[name]] = bump(phase[index[name]], 1)
    fired_per_step = []
    for _ in range(steps):
        firing = {i for i, p in enumerate(phase) if p == 2}
        impulses = [0] * len(nodes)
        for src, dst in edges:
            if index[src] in firing:
                impulses[index[dst]] += 1
        phase = [
            3 if p == 2 else 0 if p == 3 else bump(p, impulses[i])
            for i, p in enumerate(phase)
        ]
        fired_per_step.append(sorted(nodes[i] for i in firing))
    return fired_per_step, {name: "ratb"[phase[i]] for i, name in enumerate(nodes)}


# ---------------------------------------------------------------- names

def wheel_names(count: int) -> list[str]:
    """Spreadsheet-style names a, b, ..., z, aa, ab, ... (menagerie order)."""
    names = []
    for i in range(count):
        s, n = "", i
        while True:
            n, r = divmod(n, 26)
            s = chr(97 + r) + s
            if n == 0:
                break
            n -= 1
        names.append(s)
    return names


def cyk_trees(words, lexicon, patterns) -> list[str]:
    """Bracketed full-span derivations, in the CLI's bracket notation
    (a leaf with several senses shows them in braces).  Small inputs only."""
    n = len(words)
    memo: dict[tuple[int, int, str], list[str]] = {}

    def trees(i, j, category):
        key = (i, j, category)
        if key in memo:
            return memo[key]
        out = []
        if j == i + 1:
            for cat, senses in lexicon[words[i]]:
                if cat == category:
                    core = words[i] + ("{" + "|".join(senses) + "}" if len(senses) > 1 else "")
                    out.append(f"({cat} {core})")
        for sequence, result in patterns:
            if result != category:
                continue
            for split in _splits(i, j, len(sequence)):
                parts = [trees(a, b, c) for (a, b), c in zip(split, sequence)]
                for combo in _product(parts):
                    out.append(f"({category} {' '.join(combo)})")
        memo[key] = out
        return out

    categories = {result for _, result in patterns} | {c for e in lexicon.values() for c, _ in e}
    return [tree for category in sorted(categories) for tree in trees(0, n, category)]


def _splits(i, j, parts):
    if parts == 1:
        yield [(i, j)]
        return
    for k in range(i + 1, j - parts + 2):
        for rest in _splits(k, j, parts - 1):
            yield [(i, k)] + rest


def _product(lists):
    if not lists:
        yield []
        return
    for head in lists[0]:
        for tail in _product(lists[1:]):
            yield [head] + tail
