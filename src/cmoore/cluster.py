"""Clustered machines: recursive nesting across timescales.

A cluster node wraps a Moore machine at some timescale; its states may hold
inner nodes running strictly faster.  One elementary tick always enters at
the leaves, and a node consumes a tick of its own whenever its driving inner
machinery emits a non-silent output (several simultaneous emissions coalesce
into one tick).  Inner machines never reset when the outer machine moves.

Each node's run from its start is found once, when the tree is compiled,
and every walk of a node reads it.  The module also houses return times of
union trees of wheels: one preorder pass over the runs checks each node's
shape, then one summary per node (its period, the ticks on which it
advances over one window, and the periods of the subtrees below it that
never emit) is built children first.  Only the summary decides when a
union node advances; ``unfold`` reads such a tree's configurations off
those marks, one column of states per node.  The analysis of one flat
machine (its temporal family, output bisimulation, and the run every node
is compiled from) lives in ``temporal``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from json.encoder import encode_basestring
from typing import Mapping, Sequence

from . import menagerie
from .errors import (
    CYCLE_WINDOW_LIMIT,
    DEFAULT_HORIZON,  # re-exported with classify
    BudgetError,
    InputDomainError,
    UnsupportedStructureError,
    digit_count,
    leading_digits,
)
from .machine import (
    SILENT,
    Automaton,
    Constraints,
    Violation,
    _json_block,
    _json_machine,
    _read_json,
    from_doc,
    to_doc,
    validate,
)
from .temporal import _HALT, _NOT_UNARY, _run, _successor_table
from .temporal import (  # re-exported: part of the public surface of cmoore.cluster
    BisimulationResult, TemporalClass, bisimilar, canonical_machine, classify
)
from .timescales import ScaleSystem

TICK_POLICIES = ("external", "union", "current-state")
UNFOLD_BUDGET = 100_000
SIMULATE_WORK_LIMIT = 20_000_000


@dataclass(frozen=True)
class ClusterNode:
    """A machine at a timescale whose states may contain faster nodes."""

    machine: Automaton
    scale: int = 0
    inner: tuple[tuple[str, "ClusterNode"], ...] = ()
    tick_policy: str = "union"

    def __post_init__(self):
        if self.tick_policy not in TICK_POLICIES:
            raise ValueError(f"tick_policy must be one of {TICK_POLICIES}")
        known = set(self.machine.states)
        for state, node in self.inner:
            if state not in known:
                raise ValueError(f"inner node attached to unknown state {state!r}")
            if node.scale >= self.scale:
                raise ValueError(
                    f"inner node at scale {node.scale} must run strictly faster than {self.scale}"
                )
        if len({state for state, _ in self.inner}) != len(self.inner):
            raise ValueError("at most one inner node per state")
        if self.tick_policy != "external" and not self.inner:
            raise ValueError(f"tick_policy {self.tick_policy!r} needs at least one inner node")

    @cached_property
    def _compiled(self) -> "_CompiledCluster":
        return _CompiledCluster(self)

    @classmethod
    def leaf(cls, machine: Automaton, scale: int = 0) -> "ClusterNode":
        return cls(machine, scale=scale, tick_policy="external")

    def _unary_walk(self) -> tuple[int, int | None]:
        """``temporal._unary_walk`` of the tree: distinct configurations on
        its run from the start, and where the last ticks back to (or None)."""
        try:  # a union wheel tree: its start lies on a cycle of one period
            return cycle_length(self).base_ticks, 0
        except UnsupportedStructureError:
            # the lasso is the path of unfold(self), so it shares its budget
            configurations, back = self._compiled.lasso(UNFOLD_BUDGET)
            return len(configurations), back


@dataclass(frozen=True)
class ClusterState:
    """Current state per node, recursively, plus how often this node ticked."""

    current: str
    ticks: int = 0
    children: tuple[tuple[str, "ClusterState"], ...] = ()

    def child(self, state: str) -> "ClusterState":
        for name, child in self.children:
            if name == state:
                return child
        known = [name for name, _ in self.children]
        raise InputDomainError(f"{self.current}: no child at {state!r}; the children are {known!r}")

    def render(self) -> str:
        if not self.children:
            return self.current
        inside = ",".join(f"{s}={c.render()}" for s, c in self.children)
        return f"{self.current}[{inside}]"


@dataclass(frozen=True)
class TickResult:
    emission: str
    advanced: bool
    halted: bool


def initial_state(node: ClusterNode) -> ClusterState:
    return ClusterState(
        node.machine.initial,
        0,
        tuple((state, initial_state(child)) for state, child in node.inner),
    )


def validate_cluster(
    node: ClusterNode,
    scales: ScaleSystem | None = None,
    constraints: Constraints | None = None,
) -> list[Violation]:
    """Layerwise structural report: per-machine budgets and the global scale
    bounds.  ``ClusterNode`` already refuses an inner node that does not run
    strictly faster, so a tree can neither break that order nor nest itself."""
    scales = scales or ScaleSystem.modern()
    bounds = f"[{scales.min_scale}, {scales.max_scale}]"
    report: list[Violation] = []
    stack = [(node, node.machine.name)]
    while stack:
        node, path = stack.pop()
        for v in validate(node.machine, constraints):
            report.append(Violation(v.rule, f"{path}:{v.subject}", v.detail))
        if not scales.min_scale <= node.scale <= scales.max_scale:
            report.append(Violation("scale-bounds", path, f"scale {node.scale} outside {bounds}"))
        stack += [(child, f"{path}/{state}") for state, child in reversed(node.inner)]
    return report


_EXTERNAL, _UNION, _CURRENT_STATE = range(3)

# What one tick of a node did, as returned by ``_CompiledCluster.step``.
_HALTED, _IDLE, _ADVANCED, _EMITTED = -1, 0, 1, 2


def _gap_table(succ: list[int], emits: list[bool], run: tuple) -> list:
    """Per state on a leaf's run from its start, the ticks up to and
    including the leaf's next event tick (``math.inf`` when none comes).  A
    tick from a state is an event of the leaf when it emits or meets a
    marker."""
    states, _, back = run
    unrolled = states if back is None else states + states[back:]  # the cycle once more
    gap = [math.inf] * len(succ)
    nxt = math.inf
    for k in reversed(range(len(unrolled))):
        p = unrolled[k]
        if succ[p] < 0 or emits[succ[p]]:
            nxt = k
        gap[p] = nxt - k + 1
    return gap


def _advance(run: tuple, state: int, ticks: int) -> int:
    """The state of a leaf ``ticks`` ticks on from ``state`` along its
    ``run``, when none of those ticks is an event (see ``_gap_table``)."""
    states, position, back = run
    k = position[state] + ticks
    if k >= len(states):  # only a run that turns goes past its end
        k = back + (k - back) % (len(states) - back)
    return states[k]


class _CompiledCluster:
    """A cluster tree flattened into integer tables, in preorder.

    Node 0 is the root.  A configuration is a ``list[int]`` holding the
    current state index of every node; ticking mutates it in place.  Per
    node the tables hold the successor of each state (or a marker), whether
    each state emits, the tick policy, the driven children (all of them
    under the union policy, one slot per state, -1 when empty, under
    current-state), the run from the start (see ``temporal._run``), which
    every walk of a node reads, and the node steps a tick costs at most
    (``cost``: 1 plus the children's costs summed under the union policy,
    or their largest under current-state).  A leaf's ``gaps`` (see
    ``_gap_table``) stay None until ``simulate`` first runs it.
    """

    __slots__ = ("machines", "succ", "emits", "policy", "driven", "inner", "runs", "cost", "gaps")

    def __init__(self, root: ClusterNode):
        self.machines: list[Automaton] = []
        self.succ: list[list[int]] = []
        self.emits: list[list[bool]] = []
        self.policy: list[int] = []
        self.driven: list[list[int]] = []
        self.inner: list[list[tuple[str, int]]] = []
        self.runs: list[tuple] = []
        self.cost: list[int] = []
        self._add(root)
        self.gaps: list[list | None] = [None] * len(self.runs)

    def _add(self, node: ClusterNode) -> int:
        machine = node.machine
        index = machine._state_index
        i = len(self.machines)
        self.machines.append(machine)
        self.succ.append(_successor_table(machine))
        self.emits.append([machine.output_map[q] != SILENT for q in machine.states])
        self.runs.append(_run(self.succ[i], index[machine.initial]))
        self.policy.append(_EXTERNAL)
        self.driven.append([])
        self.inner.append([])
        self.cost.append(1)
        children = self.inner[i] = [(state, self._add(child)) for state, child in node.inner]
        if not children or node.tick_policy == "external":
            return i
        costs = [self.cost[child] for _, child in children]
        self.cost[i] += sum(costs) if node.tick_policy == "union" else max(costs)
        if node.tick_policy == "union":
            self.policy[i] = _UNION
            self.driven[i] = [child for _, child in children]
        else:
            self.policy[i] = _CURRENT_STATE
            self.driven[i] = [-1] * len(machine.states)
            for state, child in children:
                self.driven[i][index[state]] = child
        return i

    def step(self, vec: list[int], advances: list[int], i: int = 0) -> int:
        """One elementary tick of node ``i``: the inner machines it drives
        first, then the node itself if any of them emitted.  Advances are
        counted per node in ``advances``."""
        policy = self.policy[i]
        if policy == _UNION:
            halted = fired = False
            for child in self.driven[i]:
                done = self.step(vec, advances, child)
                if done == _HALTED:
                    halted = True
                elif done == _EMITTED:
                    fired = True
            if halted:
                return _HALTED
            if not fired:
                return _IDLE
        elif policy == _CURRENT_STATE:
            child = self.driven[i][vec[i]]
            if child < 0:
                return _IDLE
            done = self.step(vec, advances, child)
            if done != _EMITTED:
                return _HALTED if done == _HALTED else _IDLE
        current = vec[i]
        nxt = self.succ[i][current]
        if nxt < 0:
            if nxt == _HALT:
                return _HALTED
            name = self.machines[i].name
            if nxt == _NOT_UNARY:
                raise UnsupportedStructureError(
                    f"{name}: cluster simulation drives unary machines only"
                )
            state = self.machines[i].states[current]
            raise UnsupportedStructureError(
                f"{name}: nondeterministic at {state!r}; cluster ticks need determinism"
            )
        vec[i] = nxt
        advances[i] += 1
        return _EMITTED if self.emits[i][nxt] else _ADVANCED

    def running(self, vec: list[int]) -> list[int]:
        """The leaves a tick steps: nodes that drive nothing, reached from
        the root through union children and occupied current-state slots.
        Each one's ``gaps`` are built here, the first time it runs."""
        leaves, stack = [], [0]
        while stack:
            i = stack.pop()
            policy = self.policy[i]
            if policy == _UNION:
                stack += self.driven[i]
            elif policy == _CURRENT_STATE:
                child = self.driven[i][vec[i]]
                if child >= 0:
                    stack.append(child)
            else:
                if self.gaps[i] is None:
                    self.gaps[i] = _gap_table(self.succ[i], self.emits[i], self.runs[i])
                leaves.append(i)
        return leaves

    def load(self, state: ClusterState) -> tuple[list[int], list[int]]:
        """A ``ClusterState`` as a configuration plus per-node tick counts."""
        vec: list[int] = []
        advances: list[int] = []

        def visit(st: ClusterState, i: int):
            machine = self.machines[i]
            if st.current not in machine._state_index:
                raise InputDomainError(f"{machine.name}: unknown state {st.current!r}")
            vec.append(machine._state_index[st.current])
            advances.append(st.ticks)
            given = [s for s, _ in st.children]
            names = [s for s, _ in self.inner[i]]
            if len(given) != len(names) or set(given) != set(names):
                raise InputDomainError(
                    f"{machine.name}: state children {given!r} do not match"
                    f" the inner states {names!r}"
                )
            children = dict(st.children)
            for s, child in self.inner[i]:
                visit(children[s], child)

        visit(state, 0)
        return vec, advances

    def dump(self, vec: list[int], advances: list[int], i: int = 0) -> ClusterState:
        return ClusterState(
            self.machines[i].states[vec[i]],
            advances[i],
            tuple((s, self.dump(vec, advances, child)) for s, child in self.inner[i]),
        )

    def lasso(self, budget: int) -> tuple[list[tuple[int, ...]], int | None]:
        """Distinct configurations from the start, in tick order, and the
        position the last one ticks back to (None when it halts instead)."""
        vec = [states[0] for states, _, _ in self.runs]
        advances = [0] * len(vec)
        seen = {tuple(vec): 0}
        while True:
            if self.step(vec, advances) == _HALTED:
                return list(seen), None
            key = tuple(vec)
            back = seen.get(key)
            if back is not None:
                return list(seen), back
            seen[key] = len(seen)
            if len(seen) > budget:
                raise BudgetError(
                    f"unfolding exceeded {budget} configurations", used=len(seen), limit=budget
                )

    def columns(self, periods: list["_Period"], period: int) -> list[list[str]]:
        """Per node, its state name on each of the ``period`` ticks from the
        start, for a union wheel tree with the summaries ``periods`` (see
        ``_periods``) that returns after ``period`` ticks.

        A node's summary marks its advance ticks over its window, and
        ``period`` is a whole number of windows, so its count of advances
        after t ticks is the sum of the first t marks repeated; it stands on
        its wheel at that count from its start.
        """
        columns = []
        for (states, _, _), machine, summary in zip(self.runs, self.machines, periods):
            names = [machine.states[q] for q in states] * (period // len(states) + 1)
            marks = summary._marks * (period // len(summary._marks))
            counts = accumulate(marks[:-1], initial=0)  # a count never reaches period
            columns.append(list(map(names.__getitem__, counts)))
        return columns


def tick(state: ClusterState, node: ClusterNode) -> tuple[ClusterState, TickResult]:
    """One elementary tick at the fastest driven scale, propagated upward.

    Under the union policy every inner machine advances and the node consumes
    a tick of its own when any of them emits; under current-state only the
    inner machine of the occupied state advances.  A halted component halts
    the whole node (flagged, no further advance on this tick).
    """
    compiled = node._compiled
    vec, advances = compiled.load(state)
    done = compiled.step(vec, advances)
    after = compiled.dump(vec, advances)
    if done == _HALTED:
        return after, TickResult(SILENT, False, True)
    if done == _IDLE:
        return after, TickResult(SILENT, False, False)
    return after, TickResult(node.machine.output_map[after.current], True, False)


@dataclass(frozen=True)
class SimulationReport:
    ticks_requested: int
    ticks_run: int
    state_counts: tuple[tuple[str, int], ...]
    emissions: int
    halted: bool

    def occupancy(self) -> dict[str, float]:
        if self.ticks_run == 0:
            return {state: 0.0 for state, _ in self.state_counts}
        return {state: count / self.ticks_run for state, count in self.state_counts}


# simulate skips a quiet stretch only when it is longer than _QUIET_MIN
# ticks, and otherwise steps plainly in runs of up to _PLAIN_RUN ticks.
_QUIET_MIN = 4
_PLAIN_RUN = 64


def simulate(node: ClusterNode, ticks: int) -> SimulationReport:
    """Drive a cluster for ``ticks`` base ticks, tallying where the outermost
    machine spends them.

    A tick steps at most the widest path through the tree, the root's
    compiled ``cost``.  ``ticks`` times that cost over
    ``SIMULATE_WORK_LIMIT`` (a few seconds of stepping) raises
    ``BudgetError`` before the first tick.  The limit bounds the stepping
    admitted, not the work done, which is often far less:

    - **Quiet ticks.**  Until a running leaf emits or meets a marker, only
      the running leaves move (see ``_CompiledCluster.running``), so a
      stretch of such ticks moves each of them along its run at once
      (``_advance``) and adds to the root's current state.  Every other
      tick is one ``step``, so halts, errors and their order are those of
      ``tick``.  Where stretches are short the ticks are stepped plainly,
      in runs that double up to ``_PLAIN_RUN`` ticks before the next look.
    - **Whole laps.**  The configuration after a root advance is saved
      again at the first root advance past each doubling of the ticks run
      (Brent's cycle detection).  When it comes back, the lap's counts and
      emissions are multiplied by the whole laps left and the remainder is
      run out.
    """
    if not isinstance(ticks, int) or isinstance(ticks, bool):
        raise InputDomainError(f"ticks must be an integer, got {ticks!r}")
    if ticks < 0:
        raise InputDomainError(f"ticks must be >= 0, got {ticks}")
    compiled = node._compiled
    cost = compiled.cost[0]
    if ticks * cost > SIMULATE_WORK_LIMIT:
        raise BudgetError(
            f"{node.machine.name}: {ticks} ticks of {cost} node steps each"
            f" would exceed the work limit {SIMULATE_WORK_LIMIT}",
            used=ticks * cost,
            limit=SIMULATE_WORK_LIMIT,
        )
    step, runs, gaps = compiled.step, compiled.runs, compiled.gaps
    vec = [states[0] for states, _, _ in runs]
    advances = [0] * len(vec)
    counts = [0] * len(node.machine.states)
    emissions = ran = 0
    halted = False
    root_moves_alone = compiled.policy[0] == _EXTERNAL  # every tick advances the root
    saved, save_at = None, 1  # Brent's saved configuration, and when to save anew
    plain = 1
    while ran < ticks:
        run = ticks - ran
        if not root_moves_alone:
            leaves = compiled.running(vec)
            gap = min([gaps[i][vec[i]] for i in leaves], default=math.inf)
            if gap > _QUIET_MIN:
                quiet = min(gap - 1, run)
                for i in leaves:
                    vec[i] = _advance(runs[i], vec[i], quiet)
                counts[vec[0]] += quiet
                ran += quiet
                run, plain = 1, 1
                if ran == ticks:
                    break
            else:
                run = min(run, max(gap, plain))
                plain = min(2 * plain, _PLAIN_RUN)
        for ran in range(ran + 1, ran + run + 1):
            done = step(vec, advances)
            if done == _HALTED:
                halted, ran = True, ran - 1
                break
            counts[vec[0]] += 1
            if done:  # the root advanced
                if done == _EMITTED:
                    emissions += 1
                if vec == saved:
                    laps = (ticks - ran) // (ran - then[0])
                    emissions += laps * (emissions - then[1])
                    counts = [c + laps * (c - c0) for c, c0 in zip(counts, then[2])]
                    ran += laps * (ran - then[0])
                    saved, save_at = None, math.inf  # what is left is shorter than a lap
                    break
                if ran >= save_at:
                    saved, then = vec[:], (ran, emissions, counts[:])
                    save_at = 2 * ran
        if halted:
            break
    return SimulationReport(
        ticks, ran, tuple(zip(node.machine.states, counts)), emissions, halted
    )


@dataclass(frozen=True)
class CycleLength:
    """Exact first-return time of an all-wheel cluster, in base ticks.

    ``digit_count`` carries the magnitude even when the value itself is far
    past anything simulatable.  ``verified`` is true for every answer read
    from a cluster's period summary, which is exact by construction; it is
    false for values computed from bare sizes, with no machine built.
    """

    base_ticks: int
    digit_count: int
    verified: bool

    def __str__(self):
        if self.digit_count <= 24:
            return str(self.base_ticks)
        return (
            f"{leading_digits(self.base_ticks)}...e{self.digit_count - 1} "
            f"({self.digit_count} digits)"
        )


class _Period:
    """A wheel of a union wheel tree, summarised over one period.

    The wheel advances on every base tick at which one of its children
    emits, or on every tick when it has none.  Its core, the wheel with the
    cores of its emitting children, is back at its start exactly every
    ``core`` ticks and ``emissions`` counts the wheel's emissions meanwhile.
    Children that never emit only have to be back as well: the whole
    subtree returns every ``period`` = lcm(core, ``silent``) ticks, where
    ``silent`` is the lcm of the periods of those children and of the
    emitting children's own ``silent``.  They stay out of the window, so a
    silent wheel anywhere below does not widen it.

    The emitting children's cores are back together every W = lcm(cores)
    ticks.  Up to ``limit`` ticks of W the wheel marks its advance ticks in
    one window; past it, pairwise coprime cores make the children's residues
    independent (CRT), so exactly the product of (core - emissions) over
    them are idle ticks and the rest are advances.  Otherwise it raises
    ``BudgetError``.  With A advances per window the wheel of ``size``
    states is back at its start after core = W * size / gcd(A, size) ticks.
    ``emitting`` lists the advances r in [1, size] after which it stands on
    an emitting state.
    """

    __slots__ = ("core", "emissions", "silent", "period", "_size", "_emitting", "_marks")

    def __init__(self, size: int, emitting: list[int], children: list["_Period"], limit: int):
        silent = math.lcm(*(c.silent if c.emissions else c.period for c in children))
        emitters = [child for child in children if child.emissions]
        if not children:
            window, advances, marks = 1, 1, b"\x01"
        else:
            window = math.lcm(*(child.core for child in emitters))
            if window <= limit:
                marks = bytearray(window)
                for child in emitters:
                    step = child.core
                    for t in child.instants():
                        marks[t - 1 :: step] = b"\x01" * ((window - t) // step + 1)
                advances = marks.count(1)
            elif window == math.prod(child.core for child in emitters):
                advances = window - math.prod(c.core - c.emissions for c in emitters)
                marks = None
            else:
                raise BudgetError(
                    "child periods are not pairwise coprime and their lcm "
                    f"({digit_count(window)} digits) exceeds the window limit {limit}",
                    used=window,
                    limit=limit,
                )
        common = math.gcd(advances, size)
        self.core = window * size // common
        self.emissions = advances // common * len(emitting)  # whole turns times emitters
        self.silent = silent
        self.period = math.lcm(self.core, silent)
        self._size, self._emitting, self._marks = size, emitting, marks

    def instants(self) -> list[int]:
        """The base ticks in (0, core] at which the wheel emits, unordered.

        Only a parent whose window fits the limit asks, and then every
        emitting child's core fits it too, so the child marked its window.
        """
        window = len(self._marks)
        ticks = list(compress(range(1, window + 1), self._marks))
        per_window = len(ticks)
        advances = self.core // window * per_window
        return [
            n // per_window * window + ticks[n % per_window]
            for r in self._emitting
            for n in range(r - 1, advances, self._size)
        ]


def wheel_cluster_cycle(outer_size: int, inner_sizes: Sequence[int]) -> int:
    """Base ticks until an outer wheel with union-driven inner menagerie
    wheels returns to its initial configuration.

    This is the union-node step of ``cycle_length`` on bare sizes, with the
    same window limit.  A menagerie wheel emits once per turn, on its last
    state; each is taken to emit at t = size instead, one tick later for all
    of them, which leaves the advances per window as they are.
    """
    if outer_size < 1 or any(size < 1 for size in inner_sizes):
        raise InputDomainError("wheel sizes must be >= 1")
    leaves = [_Period(size, [size], [], CYCLE_WINDOW_LIMIT) for size in inner_sizes]
    return _Period(outer_size, [], leaves, CYCLE_WINDOW_LIMIT).period


def _periods(compiled: _CompiledCluster, limit: int) -> list[_Period]:
    """The summary of every node of a union wheel tree, by node, with
    ``limit`` as the window limit (see ``_Period``).

    A node is a wheel when its run from the start (``_CompiledCluster.runs``)
    holds every state and turns back to the start, and a node with inner
    wheels must tick under the union policy.  Every node is checked, in
    preorder, before any summary is built, so an
    ``UnsupportedStructureError`` wins over ``BudgetError``.
    """
    inside = {child: state for row in compiled.inner for state, child in row}
    for i, (states, _, back) in enumerate(compiled.runs):
        if back != 0 or len(states) != len(compiled.succ[i]):
            name = compiled.machines[i].name
            raise UnsupportedStructureError(
                f"{name} (inside {inside[i]!r}) is not a pure wheel"
                if i
                else f"{name}: cycle length is defined for pure wheels only"
            )
        if compiled.inner[i] and compiled.policy[i] != _UNION:
            raise UnsupportedStructureError("cycle length assumes the union tick policy")
    # children before parents and the left subtree first, so that of two
    # windows past the limit the leftmost is refused
    order, stack = [], [0]
    while stack:
        order.append(stack.pop())
        stack += compiled.driven[order[-1]]
    periods: list = [None] * len(compiled.runs)
    for i in reversed(order):
        states, emits = compiled.runs[i][0], compiled.emits[i]
        size = len(states)
        emitting = [r for r in range(1, size + 1) if emits[states[r % size]]]
        children = [periods[child] for child in compiled.driven[i]]
        periods[i] = _Period(size, emitting, children, limit)
    return periods


def cycle_length(node: ClusterNode) -> CycleLength:
    """Exact return time of an all-wheel cluster, in base ticks.

    Supported shapes: a single wheel, or a tree of wheels of any depth whose
    nodes with inner wheels tick under the union policy.  The answer is the
    period of the root's summary (see ``_periods``); a wheel whose emitting
    children's cores recur together only past ``CYCLE_WINDOW_LIMIT`` ticks,
    and are not pairwise coprime, raises ``BudgetError``.  A tick of such a
    tree is a bijection on configurations, so the start lies on a cycle, one
    period long.
    """
    value = _periods(node._compiled, CYCLE_WINDOW_LIMIT)[0].period
    return CycleLength(value, digit_count(value), True)


def max_prime_power_sizes(limit: int = 10_000) -> list[int]:
    """For each prime below ``limit``, the largest prime power below it."""
    if limit < 3:
        raise InputDomainError("limit must be at least 3")
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    sizes = []
    for p in range(2, limit):
        if sieve[p]:
            power = p
            while power * p < limit:
                power *= p
            sizes.append(power)
    return sizes


def product(
    left: Automaton,
    right: Automaton,
    scale: int = 0,
    scales: ScaleSystem | None = None,
) -> ClusterNode:
    """Run two machines side by side inside a two-state outer wheel one scale
    up, under the union policy."""
    scales = scales or ScaleSystem.modern()
    if scale + 1 > scales.max_scale or scale < scales.min_scale:
        raise InputDomainError(
            f"product needs scales {scale} and {scale + 1} inside "
            f"[{scales.min_scale}, {scales.max_scale}]"
        )
    outer = menagerie.wheel(2, name=f"product({left.name},{right.name})")
    return ClusterNode(
        outer,
        scale=scale + 1,
        inner=(
            ("a", ClusterNode.leaf(left, scale)),
            ("b", ClusterNode.leaf(right, scale)),
        ),
        tick_policy="union",
    )


def unfold(node: ClusterNode, budget: int = UNFOLD_BUDGET) -> Automaton:
    """Expand a cluster's reachable configurations into a unary machine.

    Each configuration becomes a state (named by its nested rendering, as
    ``ClusterState.render`` gives it) whose Moore output is the outer
    machine's output there; a halted configuration simply has no outgoing
    edge.  More than ``budget`` configurations raise ``BudgetError``.

    A union tree of wheels returns to its start after its period, so its
    configurations are one cycle of that length.  Its summaries are built
    with the larger of ``budget`` and ``CYCLE_WINDOW_LIMIT`` as the window
    limit, so every window within the budget is marked, and a window past
    it gives a period past it.  Such a tree is refused up front when its
    period is over the budget, and otherwise each node's states are read
    off its marks (``_CompiledCluster.columns``) without stepping a tick.
    Every other tree, and one whose summary is refused, is stepped tick by
    tick along its lasso.
    """
    compiled = node._compiled
    try:
        periods = _periods(compiled, max(budget, CYCLE_WINDOW_LIMIT))
    except (UnsupportedStructureError, BudgetError):
        configurations, back = compiled.lasso(budget)
        columns = [
            list(map(machine.states.__getitem__, column))
            for machine, column in zip(compiled.machines, zip(*configurations))
        ]
    else:
        period = periods[0].period
        # the lasso counts configurations past the start, so one always fits
        if period > max(budget, 1):
            raise BudgetError(
                f"unfolding exceeded {budget} configurations", used=period, limit=budget
            )
        columns, back = compiled.columns(periods, period), 0

    def template(i: int) -> str:
        """``ClusterState.render`` with a ``{}`` in place of each node's state."""
        inside = ",".join(
            s.replace("{", "{{").replace("}", "}}") + "=" + template(child)
            for s, child in compiled.inner[i]
        )
        return f"{{}}[{inside}]" if inside else "{}"

    labels = list(map(template(0).format, *columns))
    outputs = list(map(node.machine.output_map.__getitem__, columns[0]))
    edges = list(zip(labels, repeat("e"), labels[1:]))
    if back is not None:
        edges.append((labels[-1], "e", labels[back]))
    return Automaton(
        f"unfold({node.machine.name})",
        tuple(labels),
        ("e",),
        labels[0],
        tuple(compress(zip(labels, outputs), outputs)),  # SILENT is the one falsy output
        tuple(edges),
    )


def node_to_doc(node: ClusterNode) -> dict:
    doc = {
        "machine": to_doc(node.machine),
        "scale": node.scale,
        "tick_policy": node.tick_policy,
    }
    if node.inner:
        doc["inner"] = {state: node_to_doc(child) for state, child in node.inner}
    return doc


def node_from_doc(doc: Mapping) -> ClusterNode:
    """Read a cluster tree from its document form; a malformed node raises
    ``InputDomainError``, and a malformed machine its own error."""
    try:
        if not isinstance(doc, Mapping) or not isinstance(doc.get("inner", {}), Mapping):
            raise TypeError("a node and its 'inner' must be objects")
        scale = doc.get("scale", 0)
        if not isinstance(scale, int) or isinstance(scale, bool):
            raise TypeError(f"scale must be an integer, got {scale!r}")
        inner = tuple(
            (state, node_from_doc(sub)) for state, sub in doc.get("inner", {}).items()
        )
        return ClusterNode(
            machine=from_doc(doc["machine"]),
            scale=scale,
            inner=inner,
            tick_policy=doc.get("tick_policy", "external" if not inner else "union"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"malformed cluster document: {exc}") from exc


def node_to_json(node: ClusterNode) -> str:
    """The JSON text of a cluster tree: exactly
    ``json.dumps(node_to_doc(node), indent=2, ensure_ascii=False) + "\\n"``,
    written by the machine layer's writer (``machine.to_json``)."""
    return _json_node(node, "") + "\n"


def _json_node(node: ClusterNode, pad: str) -> str:
    """``node_to_json`` without its final newline, laid out for a value on a
    line indented by ``pad``."""
    p1 = pad + "  "
    items = [
        f'"machine": {_json_machine(node.machine, p1)}',
        f'"scale": {json.dumps(node.scale)}',
        f'"tick_policy": {encode_basestring(node.tick_policy)}',
    ]
    if node.inner:
        inner = [
            f"{encode_basestring(state)}: {_json_node(child, p1 + '  ')}"
            for state, child in node.inner
        ]
        items.append(f'"inner": {_json_block("{}", inner, p1)}')
    return _json_block("{}", items, pad)


def node_from_json(text: str) -> ClusterNode:
    return _read_json(text, node_from_doc, "cluster")
