"""Temporal structure of one flat machine: its family and output bisimulation.

The run from the initial state is read off the unary successor table by
``_run``, which the cluster engine compiles each node from as well.  A cluster
is classified by the same family rules, from ``ClusterNode._unary_walk``.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import menagerie
from .errors import DEFAULT_HORIZON, InputDomainError, UnsupportedStructureError
from .machine import Automaton

TEMPORAL_FAMILIES = ("Z", "N", "P", "L", "C")

# Successor-table markers: a state with no successor halts the machine; the
# other two refuse the tick with an UnsupportedStructureError when reached.
_HALT = -1
_NONDETERMINISTIC = -2
_NOT_UNARY = -3


def _successor_table(machine: Automaton) -> list[int]:
    """The successor index of each state on the unary tick, or a marker."""
    if len(machine.inputs) != 1:
        return [_NOT_UNARY] * len(machine.states)
    return [
        targets[0] if len(targets) == 1 else _NONDETERMINISTIC if targets else _HALT
        for targets in machine._succ[0]
    ]


def _run(succ: list[int], start: int) -> tuple[list[int], list[int], int | None]:
    """The distinct states on the run from ``start`` over the successor
    table ``succ``, each state's position on it (-1 when off it), and the
    position the last one steps back to (None when it meets a marker)."""
    position = [-1] * len(succ)
    states = []
    q = start
    while q >= 0 and position[q] < 0:
        position[q] = len(states)
        states.append(q)
        q = succ[q]
    return states, position, position[q] if q >= 0 else None


@dataclass(frozen=True)
class TemporalClass:
    """One of the five discrete temporal families.

    ``size`` is the cycle or chain length for the finite families C and L;
    ``effective`` marks finite structures so large (past the horizon) that
    they are reported as their infinite lookalikes.
    """

    family: str
    size: int | None = None
    effective: bool = False

    def __post_init__(self):
        if self.family not in TEMPORAL_FAMILIES:
            raise ValueError(f"family must be one of {TEMPORAL_FAMILIES}")
        if (self.size is not None) != (self.family in ("C", "L")):
            raise ValueError("size is present exactly for the C and L families")

    def __str__(self):
        if self.size is not None:
            return f"{self.family}({self.size})"
        return self.family


def classify(
    target,
    horizon: int = DEFAULT_HORIZON,
    open_start: bool = False,
    open_end: bool = False,
) -> TemporalClass:
    """Classify the temporal structure a machine (or cluster) carries.

    The reachable unary graph must be a chain, possibly ending in a cycle: a
    cycle from the start is C, a halting chain is L, a chain into a terminal
    self-loop is L with an absorbing end, and a chain into a longer cycle is
    eventually cyclic, reported C.  A cluster is unfolded tick by tick up to
    ``UNFOLD_BUDGET`` configurations, unless it is a union tree of wheels:
    that is C of its ``cycle_length``, and a tree that ``cycle_length``
    refuses raises its window-limit ``BudgetError``, not ``unfold``'s
    (such a tree has over ``CYCLE_WINDOW_LIMIT`` configurations, so the
    unfold budget would refuse it too).  Finite structures beyond the horizon are
    indistinguishable from the infinite families and flagged as effective Z
    (cycles) or N (chains).  Openness at either end cannot be observed by
    finite unfolding, so it is declared: an open start yields P, an open end
    yields N, both give Z.
    """
    if horizon < 0:
        raise InputDomainError(f"horizon must be >= 0, got {horizon}")
    if open_start and open_end:
        return TemporalClass("Z")
    if open_start:
        return TemporalClass("P")
    if open_end:
        return TemporalClass("N")
    if isinstance(target, Automaton):
        size, back = _unary_walk(target)
    else:  # a cluster.ClusterNode
        size, back = target._unary_walk()
    if back is None:
        if size > horizon:
            return TemporalClass("N", effective=True)
        return TemporalClass("L", size)
    cycle = size - back
    if back > 0 and cycle == 1:
        # A chain that parks in a terminal self-loop stays bounded.
        return TemporalClass("L", size)
    if cycle > horizon:
        return TemporalClass("Z", effective=True)
    return TemporalClass("C", cycle)


def _unary_walk(automaton: Automaton) -> tuple[int, int | None]:
    """Distinct states on the run from the initial state, and the position
    the last one steps back to (None when it halts instead)."""
    if len(automaton.inputs) != 1:
        raise UnsupportedStructureError(
            f"{automaton.name}: classification needs a unary machine"
        )
    succ = _successor_table(automaton)
    states, _, back = _run(succ, automaton._state_index[automaton.initial])
    if back is None and succ[states[-1]] == _NONDETERMINISTIC:
        raise UnsupportedStructureError(
            f"{automaton.name}: nondeterministic at {automaton.states[states[-1]]!r}; "
            "classification needs determinism"
        )
    return len(states), back


def canonical_machine(temporal: TemporalClass) -> Automaton:
    """The canonical finite representative: a wheel for C, a chain for L."""
    if temporal.family == "C":
        return menagerie.wheel(temporal.size)
    if temporal.family == "L":
        return menagerie.chain(temporal.size)
    raise InputDomainError(f"{temporal} has no finite canonical representative")


@dataclass(frozen=True)
class BisimulationResult:
    equivalent: bool
    partition: tuple[tuple[tuple[str, str], ...], ...]

    def __bool__(self):
        return self.equivalent


def bisimilar(left: Automaton, right: Automaton) -> BisimulationResult:
    """Output bisimulation between two unary machines.

    Partition refinement on the disjoint union (right-hand states follow the
    left ones) by a worklist, after Hopcroft and Valmari-Lehtinen.  Blocks
    start as output classes and every state starts dirty.  Each round splits
    the dirty states of a block by the set of blocks their successors lie in;
    the states that are not dirty keep the block's common signature and form
    one piece.  The largest piece keeps the block id, the others get fresh
    ids, and the next dirty states are the predecessors of those that moved.
    A state only moves into a block at most half its old size, so it moves
    at most log2 n times, and the work is O(m * d * log n) for m edges and
    largest out-degree d.  The result is the coarsest stable partition; the
    machines are bisimilar when their initial states share a block.  Blocks
    are listed in ``str`` order of their keys: the output strings when the
    output classes are already stable, else each block's rank of first
    appearance in state order.
    """
    for machine in (left, right):
        if len(machine.inputs) != 1:
            raise UnsupportedStructureError(
                f"{machine.name}: bisimulation needs unary machines"
            )
    offset = len(left.states)
    succ = left._succ[0] + tuple(tuple(offset + q for q in t) for t in right._succ[0])
    outputs = [left.output_map[q] for q in left.states]
    outputs += [right.output_map[q] for q in right.states]
    pred: list = [[] for _ in succ]
    for p, targets in enumerate(succ):
        for q in targets:
            pred[q].append(p)
    ids: dict = {}
    block = [ids.setdefault(output, len(ids)) for output in outputs]
    members: list = [set() for _ in ids]
    for p, b in enumerate(block):
        members[b].add(p)
    dirty = range(len(succ))
    while dirty:
        by_block: dict = {}
        for p in dirty:
            by_block.setdefault(block[p], []).append(p)
        splits = []  # signatures read the ids from before this round's splits
        for b, states in by_block.items():
            pieces: dict = {}
            for p in states:
                pieces.setdefault(frozenset([block[q] for q in succ[p]]), []).append(p)
            rest = len(members[b]) - len(states)
            if len(pieces) + (rest > 0) > 1:
                splits.append((b, states, list(pieces.values()), rest))
        moved: list = []
        for b, states, pieces, rest in splits:
            members[b].difference_update(states)  # what is left is the rest
            stay = max(pieces, key=len)
            if len(stay) > rest:
                pieces.remove(stay)
                if rest:
                    pieces.append(members[b])  # the rest must move
                members[b] = set(stay)
            for piece in pieces:
                fresh = len(members)
                members.append(set(piece))
                for p in piece:
                    block[p] = fresh
                moved += piece
        dirty = {r for q in moved for r in pred[q]}
    if len(members) > len(ids):  # some block split
        rank: dict = {}
        keys = [rank.setdefault(b, len(rank)) for b in block]
    else:
        keys = outputs
    nodes = [("left", q) for q in left.states] + [("right", q) for q in right.states]
    groups: dict = {}
    for node, key in zip(nodes, keys):
        groups.setdefault(key, []).append(node)
    partition = tuple(tuple(group) for _, group in sorted(groups.items(), key=str))
    left_start = left._state_index[left.initial]
    right_start = offset + right._state_index[right.initial]
    return BisimulationResult(block[left_start] == block[right_start], partition)
