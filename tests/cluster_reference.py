"""Reference cluster semantics for differential tests.

This is the original dataclass-rebuilding tick: every elementary tick
recurses through the node tree and rebuilds frozen ``ClusterState`` values
with ``dataclasses.replace``.  It is slow but written straight from the
tick rules, so the compiled stepper in ``cmoore.cluster`` is checked
against it, together with ``simulate``, ``unfold`` and ``classify`` built
on top of it the way they were before compilation, and ``first_return``,
the oracle for cycle lengths.
"""
from __future__ import annotations

from dataclasses import replace

from cmoore.cluster import (
    ClusterNode,
    ClusterState,
    SimulationReport,
    TemporalClass,
    TickResult,
    initial_state,
)
from cmoore.errors import BudgetError, UnsupportedStructureError
from cmoore.machine import SILENT, Automaton


def _advance(state: ClusterState, node: ClusterNode) -> tuple[ClusterState, TickResult]:
    machine = node.machine
    if len(machine.inputs) != 1:
        raise UnsupportedStructureError(
            f"{machine.name}: cluster simulation drives unary machines only"
        )
    successors = machine.successors(state.current, machine.inputs[0])
    if not successors:
        return state, TickResult(SILENT, False, True)
    if len(successors) > 1:
        raise UnsupportedStructureError(
            f"{machine.name}: nondeterministic at {state.current!r}; cluster ticks need determinism"
        )
    nxt = successors[0]
    new = replace(state, current=nxt, ticks=state.ticks + 1)
    return new, TickResult(machine.output_of(nxt), True, False)


def tick(state: ClusterState, node: ClusterNode) -> tuple[ClusterState, TickResult]:
    if node.tick_policy == "external" or not node.inner:
        return _advance(state, node)
    child_states = dict(state.children)
    if node.tick_policy == "union":
        fired = False
        halted = False
        new_children = []
        for st, child in node.inner:
            advanced_child, result = tick(child_states[st], child)
            new_children.append((st, advanced_child))
            fired = fired or result.emission != SILENT
            halted = halted or result.halted
        mid = replace(state, children=tuple(new_children))
        if halted:
            return mid, TickResult(SILENT, False, True)
        if not fired:
            return mid, TickResult(SILENT, False, False)
        return _advance(mid, node)
    driver = dict(node.inner).get(state.current)
    if driver is None:
        return state, TickResult(SILENT, False, False)
    advanced_child, result = tick(child_states[state.current], driver)
    new_children = tuple(
        (st, advanced_child if st == state.current else child_states[st])
        for st, _ in node.inner
    )
    mid = replace(state, children=new_children)
    if result.halted:
        return mid, TickResult(SILENT, False, True)
    if result.emission == SILENT:
        return mid, TickResult(SILENT, False, False)
    return _advance(mid, node)


def simulate(node: ClusterNode, ticks: int) -> SimulationReport:
    counts = {state: 0 for state in node.machine.states}
    state = initial_state(node)
    emissions = 0
    halted = False
    ran = 0
    for _ in range(ticks):
        state, result = tick(state, node)
        if result.halted:
            halted = True
            break
        ran += 1
        counts[state.current] += 1
        if result.emission != SILENT:
            emissions += 1
    return SimulationReport(ticks, ran, tuple(counts.items()), emissions, halted)


def shape_key(state: ClusterState):
    """Configuration identity: tick counters excluded."""
    return (state.current, tuple((s, shape_key(c)) for s, c in state.children))


def first_return(node: ClusterNode, limit: int = 100_000) -> int:
    """Ticks until the start configuration first recurs, by stepping."""
    start = initial_state(node)
    state = start
    for ticks in range(1, limit + 1):
        state, result = tick(state, node)
        if result.halted:
            raise UnsupportedStructureError(f"{node.machine.name} halts before it returns")
        if shape_key(state) == shape_key(start):
            return ticks
    raise BudgetError(f"no return within {limit} ticks")


def unfold(node: ClusterNode, budget: int = 100_000, name: str | None = None) -> Automaton:
    start = initial_state(node)
    names: dict = {shape_key(start): start.render()}
    order = [start.render()]
    outputs = {start.render(): node.machine.output_of(start.current)}
    edges = []
    frontier = [start]
    while frontier:
        state = frontier.pop()
        successor, result = tick(state, node)
        if result.halted:
            continue
        key = shape_key(successor)
        label = names.get(key)
        if label is None:
            label = successor.render()
            names[key] = label
            order.append(label)
            outputs[label] = node.machine.output_of(successor.current)
            frontier.append(successor)
            if len(names) > budget:
                raise BudgetError(f"unfolding exceeded {budget} configurations")
        edges.append((names[shape_key(state)], "e", label))
    return Automaton.make(
        name or f"unfold({node.machine.name})",
        order,
        ("e",),
        start.render(),
        {label: out for label, out in outputs.items() if out != SILENT},
        edges,
    )


def classify(target: Automaton | ClusterNode, horizon: int = 2**64) -> TemporalClass:
    automaton = unfold(target) if isinstance(target, ClusterNode) else target
    if len(automaton.inputs) != 1:
        raise UnsupportedStructureError(
            f"{automaton.name}: classification needs a unary machine"
        )
    symbol = automaton.inputs[0]
    seen: dict[str, int] = {}
    order: list[str] = []
    current = automaton.initial
    while current not in seen:
        seen[current] = len(order)
        order.append(current)
        successors = automaton.successors(current, symbol)
        if not successors:
            if len(order) > horizon:
                return TemporalClass("N", effective=True)
            return TemporalClass("L", len(order))
        if len(successors) > 1:
            raise UnsupportedStructureError(
                f"{automaton.name}: nondeterministic at {current!r}; classification needs determinism"
            )
        current = successors[0]
    stem = seen[current]
    cycle = len(order) - stem
    if stem > 0 and cycle == 1:
        return TemporalClass("L", len(order))
    if cycle > horizon:
        return TemporalClass("Z", effective=True)
    return TemporalClass("C", cycle)
