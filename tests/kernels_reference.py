"""Reference machine kernels for differential tests.

These are the string-walking versions the kernels had before every kernel
read the automaton's cached integer successor table: a transition dict
keyed by ``(state, symbol)`` with validated ``successors`` lookups on top,
per-call successor index lists for the occupancy kernels (with the
period-averaged power iteration for stationary vectors, a direct dense
solve of the balance equations for sparse, slowly mixing classes, and its
own copies of the reachability, strong-component and period helpers), the wheel
approximation scoring every size in ``Fraction`` arithmetic, a ``move`` dict
and an all-pairs merge table over name-keyed pairs (with its 500-state
cap) for the synchronizing-word search, per-machine walks for wheel sizes
and classification, the two-level cycle length with its own copy of the
per-tick first-return check (both assume each inner wheel emits on the state
before its initial one), and bisimulation by relabelling every
``(side, state)`` tuple each round until the block count stops growing.  None
of them reads ``Automaton._succ``, so ``test_kernels_differential`` can
check the shared table against them.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from random import Random
from typing import Sequence

from cmoore.analysis import (
    EXACT_PATH_LIMIT,
    SUBSET_SEARCH_LIMIT,
    FiniteDistribution,
    OccupancyVector,
    SyncResult,
)
from cmoore.cluster import (
    DEFAULT_HORIZON,
    BisimulationResult,
    CycleLength,
    TemporalClass,
    digit_count,
    wheel_cluster_cycle,
)
from cmoore.errors import (
    AmbiguousChainError,
    BudgetError,
    HaltedError,
    InfeasibleError,
    InputDomainError,
    UnsupportedStructureError,
)
from cmoore.machine import Automaton, Constraints, RunTrace
from cmoore.menagerie import annotate_outputs, wheel


# -- machine ---------------------------------------------------------------

def delta(automaton: Automaton) -> dict[tuple[str, str], tuple[str, ...]]:
    """Successors per (state, symbol), ordered by state index."""
    raw: dict[tuple[str, str], list[str]] = {}
    for src, sym, dst in automaton.edges:
        raw.setdefault((src, sym), []).append(dst)
    index = {q: i for i, q in enumerate(automaton.states)}
    return {key: tuple(sorted(dsts, key=index.__getitem__)) for key, dsts in raw.items()}


def successors(automaton: Automaton, state: str, symbol: str) -> tuple[str, ...]:
    if state not in automaton.states:
        raise InputDomainError(f"{automaton.name}: unknown state {state!r}")
    if symbol not in automaton.inputs:
        raise InputDomainError(f"{automaton.name}: unknown symbol {symbol!r}")
    return delta(automaton).get((state, symbol), ())


def deterministic(automaton: Automaton) -> bool:
    return all(len(dsts) <= 1 for dsts in delta(automaton).values())


def complete(automaton: Automaton) -> bool:
    table = delta(automaton)
    return all(table.get((q, sym)) for q in automaton.states for sym in automaton.inputs)


def run(automaton: Automaton, symbols, chooser=None) -> RunTrace:
    current = automaton.initial
    visited = [current]
    emitted = [automaton.output_of(current)]
    steps = 0
    halted = False
    for symbol in symbols:
        options = successors(automaton, current, symbol)
        if not options:
            halted = True
            break
        if len(options) == 1:
            current = options[0]
        elif chooser is None:
            raise InputDomainError(
                f"{automaton.name}: nondeterministic choice at {current!r} requires a chooser"
            )
        else:
            current = chooser.choose(options)
        steps += 1
        visited.append(current)
        emitted.append(automaton.output_of(current))
    return RunTrace(tuple(visited), tuple(emitted), steps, halted)


def transition_matrix(automaton: Automaton, symbol: str) -> list[list[int]]:
    if symbol not in automaton.inputs:
        raise InputDomainError(f"{automaton.name}: unknown symbol {symbol!r}")
    index = {q: i for i, q in enumerate(automaton.states)}
    n = len(automaton.states)
    matrix = [[0] * n for _ in range(n)]
    for src, sym, dst in automaton.edges:
        if sym == symbol:
            matrix[index[src]][index[dst]] += 1
    return matrix


# -- occupancy -------------------------------------------------------------

def _unary_symbol(automaton: Automaton) -> str:
    if len(automaton.inputs) != 1:
        raise UnsupportedStructureError(
            f"{automaton.name}: a unary input alphabet is required, got {len(automaton.inputs)} symbols"
        )
    return automaton.inputs[0]


def _successor_indices(automaton: Automaton, symbol: str) -> list[list[int]]:
    index = {q: i for i, q in enumerate(automaton.states)}
    table: list[list[int]] = [[] for _ in automaton.states]
    for q in automaton.states:
        table[index[q]] = [index[s] for s in successors(automaton, q, symbol)]
    return table


def path_count_occupancy(automaton: Automaton, steps: int) -> OccupancyVector:
    """The exact branch only: ``steps`` must not exceed EXACT_PATH_LIMIT."""
    assert steps <= EXACT_PATH_LIMIT
    if steps < 0:
        raise InputDomainError(f"steps must be >= 0, got {steps}")
    succ = _successor_indices(automaton, _unary_symbol(automaton))
    counts = [0] * len(automaton.states)
    counts[automaton.states.index(automaton.initial)] = 1
    for t in range(steps):
        new = [0] * len(counts)
        for p, c in enumerate(counts):
            for q in succ[p]:
                new[q] += c
        counts = new
        if not any(counts):
            raise HaltedError(f"{automaton.name}: no paths survive past tick {t + 1}")
    total = sum(counts)
    entries = tuple((q, Fraction(counts[i], total)) for i, q in enumerate(automaton.states))
    return OccupancyVector(entries, horizon=steps, exact=True)


def _reachable(succ: Sequence[Sequence[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in succ[p]:
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def _strong_components(nodes: Sequence[int], succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Kosaraju's algorithm, iterative so myriad-state cycles don't blow the
    recursion limit."""
    node_set = set(nodes)
    order: list[int] = []
    seen: set[int] = set()
    for root in nodes:
        if root in seen:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen.add(root)
        while stack:
            node, i = stack.pop()
            if i < len(succ[node]):
                stack.append((node, i + 1))
                nxt = succ[node][i]
                if nxt in node_set and nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(node)
    reverse: dict[int, list[int]] = {n: [] for n in nodes}
    for p in nodes:
        for q in succ[p]:
            if q in node_set:
                reverse[q].append(p)
    assigned: set[int] = set()
    components: list[list[int]] = []
    for root in reversed(order):
        if root in assigned:
            continue
        component = [root]
        assigned.add(root)
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for prev in reverse[node]:
                if prev not in assigned:
                    assigned.add(prev)
                    component.append(prev)
                    queue.append(prev)
        components.append(component)
    return components


def _period(nodes: set[int], succ: list[list[int]]) -> int:
    start = min(nodes)
    level = {start: 0}
    queue = deque([start])
    period = 0
    while queue:
        p = queue.popleft()
        for q in succ[p]:
            if q not in nodes:
                continue
            if q not in level:
                level[q] = level[p] + 1
                queue.append(q)
            else:
                period = math.gcd(period, level[p] + 1 - level[q])
    return abs(period) or 1


def stationary_distribution(
    automaton: Automaton, residual: float = 1e-12, max_rounds: int = 500_000
) -> OccupancyVector:
    def power_iteration(local_succ: list[list[int]]) -> list[float]:
        size = len(local_succ)
        period = _period(set(range(size)), local_succ)

        def push(vec: list[float]) -> list[float]:
            out = [0.0] * size
            for p, mass in enumerate(vec):
                if mass:
                    share = mass / len(local_succ[p])
                    for q in local_succ[p]:
                        out[q] += share
            return out

        v = [1.0 / size] * size
        for _ in range(max_rounds):
            window = [v]
            for _ in range(period):
                window.append(push(window[-1]))
            averaged = [math.fsum(col) / period for col in zip(*window[:period])]
            drift = push(averaged)
            if math.fsum(abs(a - b) for a, b in zip(drift, averaged)) < residual:
                return averaged
            v = window[-1]
        raise BudgetError(
            f"{automaton.name}: power iteration did not reach residual {residual} in {max_rounds} rounds"
        )

    return _stationary(automaton, power_iteration)


def stationary_by_solve(automaton: Automaton) -> OccupancyVector:
    """``stationary_distribution`` with the closed class's balance equations
    vP = v, sum(v) = 1 solved directly: Gaussian elimination with partial
    pivoting on the dense system, the last balance equation replaced by the
    normalisation.  Its cost is cubic in the class size and does not depend
    on how slowly the chain mixes."""

    def solve(local_succ: list[list[int]]) -> list[float]:
        size = len(local_succ)
        rows = [[0.0] * (size + 1) for _ in range(size)]
        for p, targets in enumerate(local_succ):
            for q in targets:
                rows[q][p] += 1.0 / len(targets)
            rows[p][p] -= 1.0
        rows[-1] = [1.0] * (size + 1)
        for col in range(size):
            pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(col + 1, size):
                factor = rows[r][col] / rows[col][col]
                if factor:
                    for k in range(col, size + 1):
                        rows[r][k] -= factor * rows[col][k]
        v = [0.0] * size
        for r in reversed(range(size)):
            tail = math.fsum(rows[r][k] * v[k] for k in range(r + 1, size))
            v[r] = (rows[r][size] - tail) / rows[r][r]
        return v

    return _stationary(automaton, solve)


def _stationary(automaton: Automaton, solve) -> OccupancyVector:
    """The checks and the exact answer for a single cycle; any other closed
    class gets its vector from ``solve``, which takes the class's successor
    lists in local indices."""
    succ = _successor_indices(automaton, _unary_symbol(automaton))
    start = automaton.states.index(automaton.initial)
    reachable = _reachable(succ, start)
    missing = [automaton.states[i] for i in sorted(reachable) if not succ[i]]
    if missing:
        raise InputDomainError(
            f"{automaton.name}: not complete, no successor at {missing[:3]!r}"
        )
    components = _strong_components(sorted(reachable), succ)
    closed = []
    for comp in components:
        comp_set = set(comp)
        if all(q in comp_set for p in comp for q in succ[p]):
            closed.append(comp)
    if len(closed) > 1:
        names = sorted(tuple(automaton.states[i] for i in sorted(comp)) for comp in closed)
        raise AmbiguousChainError(
            f"{automaton.name}: {len(closed)} closed classes: {names}", classes=names
        )
    closed_set = set(closed[0])
    if all(len(succ[p]) == 1 for p in closed_set):
        share = Fraction(1, len(closed_set))
        entries = tuple(
            (q, share if i in closed_set else Fraction(0))
            for i, q in enumerate(automaton.states)
        )
        return OccupancyVector(entries, horizon=None, exact=True)
    members = sorted(closed_set)
    position = {p: k for k, p in enumerate(members)}
    vector = solve([[position[q] for q in succ[p]] for p in members])
    total = math.fsum(vector)
    entries = tuple(
        (q, vector[position[i]] / total if i in closed_set else 0.0)
        for i, q in enumerate(automaton.states)
    )
    return OccupancyVector(entries, horizon=None, exact=False)


def monte_carlo_occupancy(automaton: Automaton, steps: int, seed: int) -> OccupancyVector:
    if steps < 1:
        raise InputDomainError(f"steps must be >= 1, got {steps}")
    succ = _successor_indices(automaton, _unary_symbol(automaton))
    rng = Random(seed)
    counts = [0] * len(automaton.states)
    current = automaton.states.index(automaton.initial)
    counts[current] = 1
    for t in range(steps):
        options = succ[current]
        if not options:
            seen = t + 1
            partial = OccupancyVector(
                tuple((q, counts[i] / seen) for i, q in enumerate(automaton.states)),
                horizon=t,
                exact=False,
            )
            raise HaltedError(
                f"{automaton.name}: halted after {t} of {steps} ticks", partial=partial
            )
        current = options[0] if len(options) == 1 else options[rng.randrange(len(options))]
        counts[current] += 1
    total = steps + 1
    entries = tuple((q, counts[i] / total) for i, q in enumerate(automaton.states))
    return OccupancyVector(entries, horizon=steps, exact=False)


# -- distribution approximation --------------------------------------------


def approximate_distribution(
    distribution: FiniteDistribution,
    epsilon: Fraction | float,
    constraints: Constraints | None = None,
) -> Automaton:
    """Smallest labeled wheel whose per-signal cycle occupancy matches the
    distribution within ``epsilon`` componentwise.

    Scans wheel sizes upward, apportioning states by largest remainder; if
    no size within the state budget reaches ``epsilon`` the error reports the
    best achievable value.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputDomainError(f"epsilon must be > 0, got {epsilon}")
    c = constraints or Constraints()
    probs = distribution.probabilities
    r = len(probs)
    best_err: Fraction | None = None
    best_size = 0
    for k in range(max(r, 1), c.max_states + 1):
        counts = _largest_remainder(probs, k)
        err = max(abs(Fraction(counts[i], k) - probs[i]) for i in range(r))
        if err <= eps:
            machine = wheel(k, name=f"dist-wheel-{k}")
            labels = {}
            cursor = 0
            for i, count in enumerate(counts):
                for state in machine.states[cursor : cursor + count]:
                    labels[state] = distribution.outcomes[i]
                cursor += count
            return annotate_outputs(machine, labels)
        if best_err is None or err < best_err:
            best_err, best_size = err, k
    raise InfeasibleError(
        f"no wheel of size <= {c.max_states} reaches epsilon {eps}; "
        f"best achievable is {float(best_err):.3e} at size {best_size}",
        best_epsilon=best_err,
        best_size=best_size,
    )


def _largest_remainder(probs: tuple[Fraction, ...], k: int) -> list[int]:
    scaled = [p * k for p in probs]
    counts = [int(s) for s in scaled]  # floors; probabilities are non-negative
    leftovers = k - sum(counts)
    order = sorted(range(len(probs)), key=lambda i: (counts[i] - scaled[i], i))
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


# -- synchronizing words ---------------------------------------------------

# The all-pairs merge table grows with the square of the state count, so it
# refuses machines above this size.
PAIR_GRAPH_LIMIT = 500


def synchronizing_word(
    automaton: Automaton,
    subset_limit: int = SUBSET_SEARCH_LIMIT,
    budget: int = 1_000_000,
) -> SyncResult | None:
    if not deterministic(automaton) or not complete(automaton):
        raise InputDomainError(
            f"{automaton.name}: synchronizing-word search needs a deterministic complete machine"
        )
    n = len(automaton.states)
    if n == 1:
        return SyncResult((), automaton.initial, True, True)
    if n > PAIR_GRAPH_LIMIT:
        raise BudgetError(
            f"{automaton.name}: {n} states exceed the pair-graph budget {PAIR_GRAPH_LIMIT}"
        )
    states = automaton.states
    move = {
        (q, sym): successors(automaton, q, sym)[0] for q in states for sym in automaton.inputs
    }
    merge_step = _pair_merge_table(automaton, move)
    if merge_step is None:
        return None
    if n <= subset_limit:
        word = _subset_search(automaton, move, budget)
        shortest = True
    else:
        word = _greedy_merge(automaton, move, merge_step)
        shortest = False
    image = set(states)
    for sym in word:
        image = {move[(q, sym)] for q in image}
    (sink,) = image
    return SyncResult(tuple(word), sink, sink == automaton.initial, shortest)


def _pair_merge_table(automaton, move):
    states = automaton.states
    symbols = automaton.inputs
    index = {q: i for i, q in enumerate(states)}

    def norm(a, b):
        return (a, b) if index[a] < index[b] else (b, a)

    pairs = [(p, q) for i, p in enumerate(states) for q in states[i + 1 :]]
    incoming: dict = {}
    merged_sources: list = []
    for pair in pairs:
        p, q = pair
        for sym in symbols:
            a, b = move[(p, sym)], move[(q, sym)]
            if a == b:
                merged_sources.append((pair, sym))
            else:
                incoming.setdefault(norm(a, b), []).append((pair, sym))
    step: dict = {}
    queue = deque()
    for pair, sym in merged_sources:
        if pair not in step:
            step[pair] = sym
            queue.append(pair)
    while queue:
        target = queue.popleft()
        for pair, sym in incoming.get(target, ()):
            if pair not in step:
                step[pair] = sym
                queue.append(pair)
    if len(step) != len(pairs):
        return None
    return step


def _subset_search(automaton, move, budget):
    full = frozenset(automaton.states)
    parents: dict = {full: (None, None)}
    queue = deque([full])
    while queue:
        subset = queue.popleft()
        if len(subset) == 1:
            word: list[str] = []
            node = subset
            while True:
                prev, sym = parents[node]
                if prev is None:
                    break
                word.append(sym)
                node = prev
            return list(reversed(word))
        for sym in automaton.inputs:
            image = frozenset(move[(q, sym)] for q in subset)
            if image not in parents:
                parents[image] = (subset, sym)
                queue.append(image)
                if len(parents) > budget:
                    raise BudgetError(
                        f"{automaton.name}: subset search exceeded {budget} subsets"
                    )
    raise BudgetError(f"{automaton.name}: subset search exhausted unexpectedly")


def _greedy_merge(automaton, move, merge_step):
    index = {q: i for i, q in enumerate(automaton.states)}
    current = set(automaton.states)
    word: list[str] = []
    while len(current) > 1:
        p, q = sorted(current, key=index.__getitem__)[:2]
        while p != q:
            sym = merge_step[(p, q) if index[p] < index[q] else (q, p)]
            word.append(sym)
            current = {move[(s, sym)] for s in current}
            p, q = move[(p, sym)], move[(q, sym)]
    return word


# -- cycle lengths, classification, bisimulation ---------------------------

def _pure_wheel_size(machine: Automaton) -> int | None:
    if len(machine.inputs) != 1:
        return None
    symbol = machine.inputs[0]
    seen = []
    current = machine.initial
    for _ in range(len(machine.states)):
        seen.append(current)
        options = successors(machine, current, symbol)
        if len(options) != 1:
            return None
        current = options[0]
    if current != machine.initial or len(set(seen)) != len(machine.states):
        return None
    return len(machine.states)


def _first_return_by_unfolding(outer_size: int, inner_sizes: Sequence[int]) -> int:
    positions = [0] * len(inner_sizes)
    outer = 0
    t = 0
    while True:
        t += 1
        fired = False
        for i, size in enumerate(inner_sizes):
            p = positions[i] + 1
            if p == size:
                p = 0
            positions[i] = p
            if p == size - 1:
                fired = True
        if fired:
            outer = (outer + 1) % outer_size
        if outer == 0 and not any(positions):
            return t


def cycle_length(node, verify_budget: int = 1_000_000) -> CycleLength:
    outer_size = _pure_wheel_size(node.machine)
    if outer_size is None:
        raise UnsupportedStructureError(
            f"{node.machine.name}: cycle length is defined for pure wheels only"
        )
    if not node.inner:
        return CycleLength(outer_size, digit_count(outer_size), True)
    if node.tick_policy != "union":
        raise UnsupportedStructureError("cycle length assumes the union tick policy")
    inner_sizes = []
    for state, child in node.inner:
        if child.inner:
            raise UnsupportedStructureError(
                "cycle length supports two-level clusters (outer wheel over leaf wheels)"
            )
        size = _pure_wheel_size(child.machine)
        if size is None:
            raise UnsupportedStructureError(
                f"{child.machine.name} (inside {state!r}) is not a pure wheel"
            )
        inner_sizes.append(size)
    value = wheel_cluster_cycle(outer_size, inner_sizes)
    verified = False
    if value <= verify_budget:
        assert _first_return_by_unfolding(outer_size, inner_sizes) == value
        verified = True
    return CycleLength(value, digit_count(value), verified)


def _unary_walk(automaton: Automaton) -> tuple[int, int | None]:
    if len(automaton.inputs) != 1:
        raise UnsupportedStructureError(
            f"{automaton.name}: classification needs a unary machine"
        )
    symbol = automaton.inputs[0]
    seen: dict[str, int] = {}
    current = automaton.initial
    while current not in seen:
        seen[current] = len(seen)
        options = successors(automaton, current, symbol)
        if not options:
            return len(seen), None
        if len(options) > 1:
            raise UnsupportedStructureError(
                f"{automaton.name}: nondeterministic at {current!r}; classification needs determinism"
            )
        current = options[0]
    return len(seen), seen[current]


def classify(automaton: Automaton, horizon: int = DEFAULT_HORIZON) -> TemporalClass:
    """Classification of a machine (not a cluster), with both ends closed."""
    size, back = _unary_walk(automaton)
    if back is None:
        if size > horizon:
            return TemporalClass("N", effective=True)
        return TemporalClass("L", size)
    cycle = size - back
    if back > 0 and cycle == 1:
        return TemporalClass("L", size)
    if cycle > horizon:
        return TemporalClass("Z", effective=True)
    return TemporalClass("C", cycle)


def bisimilar(left: Automaton, right: Automaton) -> BisimulationResult:
    for machine in (left, right):
        if len(machine.inputs) != 1:
            raise UnsupportedStructureError(
                f"{machine.name}: bisimulation needs unary machines"
            )
    nodes = [("left", q) for q in left.states] + [("right", q) for q in right.states]
    machines = {"left": left, "right": right}

    def node_successors(node):
        side, q = node
        m = machines[side]
        return tuple((side, s) for s in successors(m, q, m.inputs[0]))

    block = {node: machines[node[0]].output_of(node[1]) for node in nodes}
    while True:
        signature = {
            node: (block[node], frozenset(block[s] for s in node_successors(node)))
            for node in nodes
        }
        relabel: dict = {}
        new_block = {}
        for node in nodes:
            key = signature[node]
            if key not in relabel:
                relabel[key] = len(relabel)
            new_block[node] = relabel[key]
        if len(set(new_block.values())) == len(set(block.values())):
            break
        block = new_block
    groups: dict = {}
    for node in nodes:
        groups.setdefault(block[node], []).append(node)
    partition = tuple(tuple(members) for _, members in sorted(groups.items(), key=str))
    equivalent = block[("left", left.initial)] == block[("right", right.initial)]
    return BisimulationResult(equivalent, partition)
