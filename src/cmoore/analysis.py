"""Occupancy statistics, stationary behavior, distribution approximation,
and synchronizing-word search.

Two distinct occupancy notions live here and are deliberately kept apart:

* path-count occupancy treats nondeterminism as free choice and reports, for
  each state, the fraction of equal-length input paths that end there;
* stationary occupancy treats nondeterminism probabilistically (uniform
  choice among successors) and reports the long-run distribution of the
  induced Markov chain.

For the looped 2-wheel the two disagree (golden-ratio 0.618... versus 2/3),
and that contrast is part of the contract.  The stationary solver finds the
reachable states and the closed classes in one depth-first pass, or none when
the run from the initial state is a deterministic lasso.

Path counting, the stationary solver and Monte Carlo share one work limit,
``OCCUPANCY_WORK_LIMIT``, counted in state and edge visits.  Path counting
visits every state and edge once per step, and each of its steps, like each
Monte Carlo step, also costs ``_STEP_VISITS`` visits of fixed work.  A
Gauss-Seidel sweep of the stationary solver counts six visits per state and
edge of the closed class, as it costs about six times more.  Past the limit
they raise ``BudgetError``, within a few seconds.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, attrgetter, itemgetter, mul, sub
from random import Random
from typing import Sequence

from .errors import (
    SYNC_WORK_LIMIT,
    AmbiguousChainError,
    BudgetError,
    HaltedError,
    InfeasibleError,
    InputDomainError,
    UnsupportedStructureError,
)
from .machine import Automaton, Constraints
from .menagerie import annotate_outputs, wheel

EXACT_PATH_LIMIT = 200
SUBSET_SEARCH_LIMIT = 20
STATIONARY_RESIDUAL = 1e-12
OCCUPANCY_WORK_LIMIT = 50_000_000
# The fixed cost of one step of path counting or Monte Carlo, in visits: a
# path-count step over wheel:3 costs about as much as 24 visits of wheel:10000,
# and a random step about half as much.
_STEP_VISITS = 24


@dataclass(frozen=True)
class OccupancyVector:
    """Per-state occupancy fractions; exact rationals or floats summing to 1."""

    entries: tuple[tuple[str, Fraction | float], ...]
    horizon: int | None
    exact: bool

    def __post_init__(self):
        values = [value for _, value in self.entries]
        if self.exact:
            if not _sums_to_one(values):
                raise ValueError(f"exact occupancy must sum to 1, got {sum(values)}")
        elif abs(sum(values) - 1.0) > 1e-12:
            raise ValueError(f"occupancy must sum to 1 within 1e-12, got {sum(values)!r}")

    def as_dict(self) -> dict[str, Fraction | float]:
        return dict(self.entries)

    @cached_property
    def _index(self) -> dict[str, Fraction | float]:
        return dict(self.entries)

    def __getitem__(self, state: str) -> Fraction | float:
        return self._index[state]


def _sums_to_one(values: list) -> bool:
    """Whether exact rationals sum to 1, decided on integers: over their least
    common denominator L, the numerators scaled to L must sum to L."""
    try:
        denominators = list(map(attrgetter("denominator"), values))
        numerators = list(map(attrgetter("numerator"), values))
    except AttributeError:  # not rationals (floats, say): add them as they are
        return sum(values) == 1
    common = math.lcm(*denominators)
    return sum(map(mul, numerators, map(common.__floordiv__, denominators))) == common


def signal_occupancy(vector: OccupancyVector, automaton: Automaton) -> dict[str, Fraction | float]:
    """Aggregate state occupancy by output signal; silence keys as ""."""
    totals: dict[str, Fraction | float] = {}
    for state, value in vector.entries:
        signal = automaton.output_of(state)
        totals[signal] = totals.get(signal, 0) + value
    return totals


def _unary_table(automaton: Automaton) -> tuple[tuple[int, ...], ...]:
    """The successor indices of every state on the machine's one symbol."""
    if len(automaton.inputs) != 1:
        raise UnsupportedStructureError(
            f"{automaton.name}: a unary input alphabet is required, got {len(automaton.inputs)} symbols"
        )
    return automaton._succ[0]


def path_count_occupancy(automaton: Automaton, steps: int) -> OccupancyVector:
    """Fraction of length-``steps`` paths from the initial state ending in
    each state.

    Counts are exact big integers up to ``EXACT_PATH_LIMIT`` steps, where the
    result is a vector of exact rationals; beyond that the count vector is
    renormalized each step in floating point to dodge overflow of the
    (typically exponential) path totals.  ``(states + edges + _STEP_VISITS)
    * steps`` over ``OCCUPANCY_WORK_LIMIT`` raises ``BudgetError`` before
    counting starts.  A step pulls each state's count from its predecessors,
    a column of them at a time (``_predecessor_columns``).
    """
    if steps < 0:
        raise InputDomainError(f"steps must be >= 0, got {steps}")
    succ = _unary_table(automaton)
    n = len(automaton.states)
    edges = sum(map(len, succ))
    work = (n + edges + _STEP_VISITS) * steps
    if work > OCCUPANCY_WORK_LIMIT:
        raise BudgetError(
            f"{automaton.name}: {steps} steps over {n} states and {edges} edges"
            f" would exceed the work limit {OCCUPANCY_WORK_LIMIT}",
            used=work,
            limit=OCCUPANCY_WORK_LIMIT,
        )
    start = automaton._state_index[automaton.initial]
    exact = steps <= EXACT_PATH_LIMIT
    zero = 0 if exact else 0.0
    position, columns = _predecessor_columns(succ)
    counts: list = [zero] * n
    counts[position[start]] = 1 if exact else 1.0
    # a step sums the gathered columns: the first two as they are gathered,
    # each later one into the prefix of the states it reaches
    first, m = columns[0], len(columns[1])
    head, second, rest = _gather(first[:m]), _gather(columns[1]), _gather(first[m:])
    later = [(len(column), _gather(column)) for column in columns[2:]]
    pad = [zero] * (n - len(first))
    for t in range(steps):
        new = list(map(add, head(counts), second(counts)))
        new += rest(counts)
        for m, column in later:
            new[:m] = map(add, new, column(counts))
        new += pad
        if exact:
            counts = new
            if not any(counts):
                raise HaltedError(f"{automaton.name}: no paths survive past tick {t + 1}")
        else:
            total = math.fsum(new)
            if total == 0.0:
                raise HaltedError(f"{automaton.name}: no paths survive past tick {t + 1}")
            counts = list(map(total.__rtruediv__, new))
    counts = _gather(position)(counts)
    if exact:
        total = sum(counts)
        entries = tuple(
            (q, Fraction(counts[i], total)) for i, q in enumerate(automaton.states)
        )
    else:
        total = math.fsum(counts)
        entries = tuple((q, counts[i] / total) for i, q in enumerate(automaton.states))
    return OccupancyVector(entries, horizon=steps, exact=exact)


def _predecessor_columns(succ: Sequence[Sequence[int]]) -> tuple[list[int], list]:
    """The transposed successor table, read a column at a time.

    States are relabelled by descending in-degree (``position[p]`` is the
    new label of state ``p``), so the states with a j-th predecessor are the
    first ``m_j`` labels.  Column j lists the new labels of the j-th
    predecessors, in ascending state order, of those states; there are at
    least two columns, the second empty if no state has two predecessors.
    Summing the columns in order adds each state's predecessors in the order
    a push along the edges would, so floats round the same (Saad, Iterative
    Methods for Sparse Linear Systems, 2003, 3.4)."""
    preds: list[list[int]] = [[] for _ in succ]
    for p, targets in enumerate(succ):
        for q in targets:
            preds[q].append(p)
    degree = list(map(len, preds))
    order = sorted(range(len(succ)), key=degree.__getitem__, reverse=True)  # stable
    position = [0] * len(succ)
    for k, q in enumerate(order):
        position[q] = k
    ordered = [preds[q] for q in order]
    columns = []
    m = len(ordered)
    for j in range(max(degree[order[0]], 2)):
        while m and degree[order[m - 1]] <= j:
            m -= 1
        columns.append(list(map(position.__getitem__, map(itemgetter(j), ordered[:m]))))
    return position, columns


def _gather(indices: list[int]):
    """``itemgetter(*indices)``, but a tuple for any number of indices."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda values: tuple(values[i] for i in indices)


def _reachable(succ: Sequence[Sequence[int]], start: int) -> dict[int, None]:
    """The states reachable from ``start``, in breadth-first order."""
    seen = {start: None}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q in succ[p]:
            if q not in seen:
                seen[q] = None
                queue.append(q)
    return seen


def _closed_classes(
    succ: Sequence[Sequence[int]], start: int
) -> tuple[list[int], list[list[int]]]:
    """The states reachable from ``start`` and the closed classes among them,
    from one depth-first pass of Tarjan's algorithm (SIAM J. Comput. 1(2),
    1972), iterative so myriad-state chains don't blow the recursion limit.
    A component is closed when, as it is popped, every successor of its
    members carries its id, the index of its root."""
    order = [-1] * len(succ)  # discovery rank, -1 until reached
    low = [0] * len(succ)
    component = [-1] * len(succ)  # -1 until popped
    reached: list[int] = []
    stack: list[int] = []
    work: list = []
    closed: list[list[int]] = []

    def reach(q):
        order[q] = low[q] = len(reached)
        reached.append(q)
        stack.append(q)
        work.append((q, iter(succ[q])))

    reach(start)
    while work:
        p, targets = work[-1]
        for q in targets:
            if order[q] < 0:
                reach(q)
                break
            if component[q] < 0:  # still on the stack: p's own component
                low[p] = min(low[p], order[q])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[p])
            if low[p] == order[p]:
                members, q = [], -1
                while q != p:
                    q = stack.pop()
                    component[q] = p
                    members.append(q)
                if all(component[q] == p for r in members for q in succ[r]):
                    closed.append(members)
    return reached, closed


def stationary_distribution(automaton: Automaton) -> OccupancyVector:
    """Long-run occupancy under uniform choice among successors.

    The chain is restricted to the states reachable from the initial state;
    a unique closed class must exist there, otherwise the stationary vector
    is ambiguous and the closed classes are reported.  Both come from one
    pass of Tarjan's algorithm (``_closed_classes``), unless the run from the
    initial state never branches or halts: the cycle it closes is then the
    one closed class.  Deterministic cycles
    get an exact uniform answer (the running-average limit); everything else
    is solved by Gauss-Seidel sweeps over the class in breadth-first order
    (Stewart, Introduction to the Numerical Solution of Markov Chains, 1994,
    ch. 3), periodic classes included, until ``||vP - v||_1`` is below
    ``STATIONARY_RESIDUAL``, or ``BudgetError`` once the sweeps pass
    ``OCCUPANCY_WORK_LIMIT``.
    """
    succ = _unary_table(automaton)
    start = automaton._state_index[automaton.initial]
    path, back = _single_run(succ, start, len(succ))
    if back >= 0:  # a deterministic lasso: its cycle is the one closed class
        return _uniform_on(automaton, path[back:])
    reachable, closed = _closed_classes(succ, start)
    missing = [automaton.states[i] for i in sorted(reachable) if not succ[i]]
    if missing:
        raise InputDomainError(
            f"{automaton.name}: not complete, no successor at {missing[:3]!r}"
        )
    if len(closed) > 1:
        names = sorted(tuple(automaton.states[i] for i in sorted(comp)) for comp in closed)
        raise AmbiguousChainError(
            f"{automaton.name}: {len(closed)} closed classes: {names}", classes=names
        )
    closed_set = set(closed[0])
    if all(len(succ[p]) == 1 for p in closed_set):
        return _uniform_on(automaton, closed_set)
    # Gauss-Seidel on x[p] = v[p] / outdeg(p), the mass p sends along each
    # edge.  Balance at p, its self-loop aside: x[p] * moves[p] is the sum
    # of x over p's other predecessors.
    members = list(_reachable(succ, min(closed_set)))
    position = {p: k for k, p in enumerate(members)}
    inflow: list[list[int]] = [[] for _ in members]
    for k, p in enumerate(members):
        for q in succ[p]:
            if q != p:
                inflow[position[q]].append(k)
    degree = [len(succ[p]) for p in members]
    # >= 1: the class is strongly connected, and {p} with p -> p alone was answered above
    moves = [len(succ[p]) - (p in succ[p]) for p in members]
    # a sweep and its residual pass cost about six path-count steps per state and edge
    sweep = 6 * (len(members) + sum(degree))
    x = [1.0 / len(members)] * len(members)
    work = 0
    while True:
        work += sweep
        if work > OCCUPANCY_WORK_LIMIT:
            raise BudgetError(
                f"{automaton.name}: Gauss-Seidel sweeps did not reach residual"
                f" {STATIONARY_RESIDUAL} within the work limit {OCCUPANCY_WORK_LIMIT}",
                used=work,
                limit=OCCUPANCY_WORK_LIMIT,
            )
        for j, preds in enumerate(inflow):
            x[j] = sum(map(x.__getitem__, preds)) / moves[j]
        total = math.fsum(map(mul, x, degree))
        x = [value / total for value in x]
        flows = [sum(map(x.__getitem__, preds)) for preds in inflow]
        if math.fsum(map(abs, map(sub, flows, map(mul, moves, x)))) < STATIONARY_RESIDUAL:
            v = dict(zip(members, map(mul, x, degree)))
            entries = tuple((q, v.get(i, 0.0)) for i, q in enumerate(automaton.states))
            return OccupancyVector(entries, horizon=None, exact=False)


def _uniform_on(automaton: Automaton, cycle) -> OccupancyVector:
    """The exact stationary vector of a deterministic cycle: uniform on its
    states, which ``cycle`` lists once each."""
    share = Fraction(1, len(cycle))
    shares = [Fraction(0)] * len(automaton.states)
    for i in cycle:
        shares[i] = share
    return OccupancyVector(tuple(zip(automaton.states, shares)), horizon=None, exact=True)


def monte_carlo_occupancy(automaton: Automaton, steps: int, seed: int) -> OccupancyVector:
    """Visit fractions of a single seeded random run of ``steps`` ticks.

    The initial state counts as an observation, so fractions are over
    ``steps + 1`` instants.  Identical seeds give identical vectors.
    ``_STEP_VISITS * steps`` over ``OCCUPANCY_WORK_LIMIT`` raises
    ``BudgetError`` before the run starts.  Only branches are stepped: a
    stretch of states with one successor each is jumped whole (``_hop``),
    and a run that ends in a cycle without branches is counted by laps.
    """
    if steps < 1:
        raise InputDomainError(f"steps must be >= 1, got {steps}")
    succ = _unary_table(automaton)
    work = _STEP_VISITS * steps
    if work > OCCUPANCY_WORK_LIMIT:
        raise BudgetError(
            f"{automaton.name}: {steps} random steps would exceed the work limit"
            f" {OCCUPANCY_WORK_LIMIT}",
            used=work,
            limit=OCCUPANCY_WORK_LIMIT,
        )
    randrange = Random(seed).randrange
    counts = [0] * len(automaton.states)
    marks = [0] * len(automaton.states)
    hops: dict[int, tuple] = {}
    current = automaton._state_index[automaton.initial]
    counts[current] = 1
    left = steps
    while left:
        options = succ[current]
        if len(options) > 1:
            current = options[randrange(len(options))]
            left -= 1
        elif options:
            # a stretch of single successors: jump it whole, or walk out the run
            distance, land = hops.get(current) or _hop(succ, hops, current)
            if distance > left:
                _walk_out(succ, counts, current, left)
                break
            marks[current] += 1
            left -= distance
            current = land
        else:
            _push_marks(succ, hops, marks, counts)
            t = steps - left
            seen = t + 1
            partial = OccupancyVector(
                tuple((q, counts[i] / seen) for i, q in enumerate(automaton.states)),
                horizon=t,
                exact=False,
            )
            raise HaltedError(
                f"{automaton.name}: halted after {t} of {steps} ticks", partial=partial
            )
        counts[current] += 1
    _push_marks(succ, hops, marks, counts)
    total = steps + 1
    entries = tuple((q, counts[i] / total) for i, q in enumerate(automaton.states))
    return OccupancyVector(entries, horizon=steps, exact=False)


def _single_run(
    succ: Sequence[Sequence[int]], p: int, limit: int, known=()
) -> tuple[list[int], int]:
    """The run from ``p`` while each state has exactly one successor.

    Returns the states passed, ``p`` first, and the index among them of the
    state the run steps back to, or -1 if it closes no cycle.  The run stops
    after ``limit`` steps, at a state without exactly one successor, or on
    entering a state in ``known``."""
    path, index = [p], {p: 0}
    while len(path) <= limit and len(succ[p]) == 1:
        p = succ[p][0]
        if p in index:
            return path, index[p]
        index[p] = len(path)
        path.append(p)
        if p in known:
            break
    return path, -1


def _hop(succ, hops: dict, p: int) -> tuple:
    """Resolve the stretch from ``p``, a state with one successor: each
    state passed gets ``hops[q] = (distance, land)``, the steps to the first
    state with no or several successors and that state, or ``(inf, -1)``
    when the run closes a cycle first.  Resolved states end the walk (path
    compression), so each state is walked once."""
    path, back = _single_run(succ, p, len(succ), hops)
    if back >= 0:
        distance, land = math.inf, -1
    else:
        end = path.pop()
        distance, land = hops.get(end) or (0, end)
    for q in reversed(path):
        distance += 1
        hops[q] = (distance, land)
    return hops[p]


def _walk_out(succ, counts: list[int], p: int, steps: int) -> None:
    """Count the states a run of ``steps`` single successors from ``p``
    enters; once it closes a cycle, whole laps and the remainder are counted
    by arithmetic."""
    path, back = _single_run(succ, p, steps)
    for q in path[1:]:
        counts[q] += 1
    if back >= 0:
        cycle = path[back:]
        laps, rest = divmod(steps - len(path) + 1, len(cycle))
        for q in cycle:
            counts[q] += laps
        for q in cycle[:rest]:
            counts[q] += 1


def _push_marks(succ, hops: dict, marks: list[int], counts: list[int]) -> None:
    """Count the states inside the stretches jumped: a mark on a state is
    one visit of each state after it, short of the landing state (counted
    at the jump).  Longer stretches pass their marks down first."""
    for distance, p in sorted(
        ((distance, p) for p, (distance, _) in hops.items() if 1 < distance < math.inf),
        reverse=True,
    ):
        if marks[p]:
            q = succ[p][0]
            counts[q] += marks[p]
            marks[q] += marks[p]


@dataclass(frozen=True)
class FiniteDistribution:
    """A finite probability distribution over named outcomes."""

    outcomes: tuple[str, ...]
    probabilities: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("a distribution needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")
        if any(not label for label in self.outcomes):
            raise ValueError("outcome labels must be non-empty")
        if len(self.outcomes) != len(self.probabilities):
            raise ValueError("one probability per outcome")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be non-negative")
        if sum(self.probabilities) != 1:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probabilities)}")

    @classmethod
    def make(cls, pairs) -> "FiniteDistribution":
        outcomes = tuple(label for label, _ in pairs)
        probabilities = tuple(Fraction(p) for _, p in pairs)
        return cls(outcomes, probabilities)

    @classmethod
    def parse(cls, text: str, outcomes: Sequence[str] | None = None) -> "FiniteDistribution":
        """Parse "0.5,0.3,0.2" into exact rationals; labels default to 1..r."""
        probabilities = tuple(Fraction(part.strip()) for part in text.split(","))
        labels = tuple(outcomes) if outcomes else tuple(str(i + 1) for i in range(len(probabilities)))
        return cls(labels, probabilities)


def approximate_distribution(
    distribution: FiniteDistribution,
    epsilon: Fraction | float,
    constraints: Constraints | None = None,
) -> Automaton:
    """Smallest labeled wheel whose per-signal cycle occupancy matches the
    distribution within ``epsilon`` componentwise.

    Scans wheel sizes upward, apportioning states by largest remainder; if
    no size within the state budget reaches ``epsilon`` the error reports the
    best achievable value.  Over a common denominator ``D`` each probability
    is ``w / D`` for an integer weight ``w``, so size ``k`` is scored in
    integers: a count ``c`` misses by ``|c * D - w * k| / (k * D)``.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputDomainError(f"epsilon must be > 0, got {epsilon}")
    c = constraints or Constraints()
    probs = distribution.probabilities
    r = len(probs)
    if c.max_states < r:
        raise InfeasibleError(
            f"no wheel of size <= {c.max_states} reaches epsilon {eps}; "
            f"the scan starts at {r} states, one per outcome"
        )
    denominator = math.lcm(*(p.denominator for p in probs))
    weights = [p.numerator * (denominator // p.denominator) for p in probs]
    best_miss, best_size = 0, 0
    for k in range(r, c.max_states + 1):
        counts = _largest_remainder(weights, denominator, k)
        miss = max(abs(count * denominator - w * k) for count, w in zip(counts, weights))
        if miss * eps.denominator <= eps.numerator * k * denominator:
            machine = wheel(k, name=f"dist-wheel-{k}")
            labels = {}
            cursor = 0
            for i, count in enumerate(counts):
                for state in machine.states[cursor : cursor + count]:
                    labels[state] = distribution.outcomes[i]
                cursor += count
            return annotate_outputs(machine, labels)
        if k == r or miss * best_size < best_miss * k:
            best_miss, best_size = miss, k
    best_err = Fraction(best_miss, best_size * denominator)
    raise InfeasibleError(
        f"no wheel of size <= {c.max_states} reaches epsilon {eps}; "
        f"best achievable is {float(best_err):.3e} at size {best_size}",
        best_epsilon=best_err,
        best_size=best_size,
    )


def _largest_remainder(weights: list[int], denominator: int, k: int) -> list[int]:
    """Counts summing to ``k`` for shares ``w / denominator``: the floors of
    ``w * k / denominator``, plus one for the largest remainders (the lower
    index first among equal ones)."""
    counts, remainders = zip(*(divmod(w * k, denominator) for w in weights))
    counts = list(counts)
    leftovers = k - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: -remainders[i])
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class SyncResult:
    """A synchronizing word plus where it funnels the machine."""

    word: tuple[str, ...]
    sink: str
    sink_is_initial: bool
    shortest: bool


def synchronizing_word(
    automaton: Automaton,
    subset_limit: int = SUBSET_SEARCH_LIMIT,
    budget: int = 1_000_000,
) -> SyncResult | None:
    """Find a word driving every state to one common state, or None.

    A machine of two or more states whose letters are all permutations
    never synchronizes, and gets None at once.  Otherwise greedy pair
    merging decides whether the machine synchronizes, within
    ``SYNC_WORK_LIMIT`` (else ``BudgetError``).  Machines up to
    ``subset_limit`` states (20 by default) then get a breadth-first search
    over state subsets and so a shortest word; above that the greedy word is
    kept, flagged as not necessarily shortest.  The reached sink need not be
    the initial state; the result records whether it is.
    """
    if not automaton.deterministic or not automaton.complete:
        raise InputDomainError(
            f"{automaton.name}: synchronizing-word search needs a deterministic complete machine"
        )
    n = len(automaton.states)
    if n == 1:
        return SyncResult((), automaton.initial, True, True)
    if all(len(set(row)) == n for row in automaton._succ):
        return None  # every letter permutes the states, so no image shrinks
    word = _greedy_merge(automaton)
    if word is None:
        return None
    shortest = n <= subset_limit
    if shortest:
        word = _subset_search(automaton, budget)
    table = automaton._succ
    sink = 0  # the word sends every state to the sink, state 0 included
    for a in word:
        sink = table[a][sink][0]
    return SyncResult(
        tuple(automaton.inputs[a] for a in word),
        automaton.states[sink],
        automaton.states[sink] == automaton.initial,
        shortest,
    )


def _greedy_merge(automaton):
    """Greedy pair merging (Eppstein, SIAM J. Comput. 19(3), 1990): merge the
    image's two lowest states by a shortest word, found by breadth-first
    search over pairs keyed ``p * n + q``, and move the image along it.  None
    when a search exhausts, as that pair never merges.  Work is 1 per state
    moved and 50 per letter tried from a visited pair: a try costs about 15
    moves in time and may keep a dict entry, so the search stops within
    ``SYNC_WORK_LIMIT / 50`` entries at any alphabet size.
    """
    n = len(automaton.states)
    rows = [[succ[0] for succ in row] for row in automaton._succ]
    letters = len(rows)
    image = set(range(n))
    word: list[int] = []
    work = 0

    def spend(units):
        nonlocal work
        work += units
        if work > SYNC_WORK_LIMIT:
            raise BudgetError(
                f"{automaton.name}: greedy pair merging exceeded the work limit {SYNC_WORK_LIMIT}",
                used=work,
                limit=SYNC_WORK_LIMIT,
            )

    while len(image) > 1:
        p, q = sorted(image)[:2]
        start = p * n + q
        parent = {start: None}
        queue = deque([start])
        merge = None
        while queue and merge is None:
            key = queue.popleft()
            spend(50 * letters)
            p, q = divmod(key, n)
            for a, row in enumerate(rows):
                x, y = row[p], row[q]
                if x == y:
                    merge = [a]
                    break
                target = x * n + y if x < y else y * n + x
                if target not in parent:
                    parent[target] = key * letters + a
                    queue.append(target)
        if merge is None:
            return None
        step = parent[key]
        while step is not None:
            key, a = divmod(step, letters)
            merge.append(a)
            step = parent[key]
        for a in reversed(merge):
            spend(len(image))
            row = rows[a]
            image = {row[s] for s in image}
            word.append(a)
    return word


def _subset_search(automaton, budget):
    """Breadth-first search over state subsets, kept as bitmasks.  A letter's
    image of a subset joins the images of its bytes, read from one table per
    letter and byte.  The caller has found a synchronizing word, so the
    search reaches a singleton."""
    n = len(automaton.states)
    letters = []
    for row in automaton._succ:
        letters.append([])
        for low in range(0, n, 8):
            table = [0]  # the image of every byte value, doubled one bit at a time
            for succ in row[low:low + 8]:
                table += [image | 1 << succ[0] for image in table]
            letters[-1].append((low, table))
    full = (1 << n) - 1
    parents: dict[int, int | None] = {full: None}  # image -> subset * letters + letter
    queue = deque([full])
    while True:
        subset = queue.popleft()
        if subset & (subset - 1) == 0:
            word: list[int] = []
            while (step := parents[subset]) is not None:
                subset, a = divmod(step, len(letters))
                word.append(a)
            return word[::-1]
        for a, images in enumerate(letters):
            image = 0
            for low, table in images:
                image |= table[subset >> low & 255]
            if image not in parents:
                parents[image] = subset * len(letters) + a
                queue.append(image)
                if len(parents) > budget:
                    raise BudgetError(
                        f"{automaton.name}: subset search exceeded {budget} subsets",
                        used=len(parents),
                        limit=budget,
                    )

