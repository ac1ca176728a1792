"""The compiled cluster stepper against the reference semantics.

Random cluster trees of depth 1-3 under all three tick policies, built from
wheels, chains (partial machines), lazy wheels (nondeterministic) and a
binary machine, must give the same simulation reports, unfolded machines,
classifications and tick-by-tick states as ``cluster_reference``, and raise
the same errors on the same tick.  Union wheel trees of depth 1-4, which
``unfold`` reads off their period, must unfold to the same machines.
Larger machines with sparse emitting sets, run for thousands of ticks, give
``simulate`` long quiet stretches to skip and whole laps to count.
The same trees write the text that ``json.dumps(indent=2)`` writes.
"""
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cluster_reference as ref
from cmoore.cluster import (
    DEFAULT_HORIZON,
    TICK_POLICIES,
    ClusterNode,
    TemporalClass,
    TickResult,
    classify,
    initial_state,
    node_from_json,
    node_to_doc,
    node_to_json,
    product,
    simulate,
    tick,
    unfold,
)
from cmoore.errors import BudgetError, DomainError
from cmoore.machine import SILENT, Automaton
from cmoore.menagerie import annotate_outputs, chain, state_names, synapse, wheel
from test_kernels_differential import union_wheel_trees

# Examples tick hundreds to thousands of times through the slow reference.
settings.register_profile(
    "cluster-differential",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
DIFFERENTIAL = settings.get_profile("cluster-differential")
# Runs of 1,000-4,000 ticks; the profile above serves the shorter runs.
settings.register_profile(
    "cluster-long-run",
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
LONG_RUN = settings.get_profile("cluster-long-run")

UNFOLD_LIMIT = 2000  # configurations; keeps the reference unfold quick


@st.composite
def machines(draw):
    kind = draw(st.sampled_from(("wheel", "chain", "looped-chain", "lazy-wheel", "binary")))
    size = draw(st.integers(1, 4))
    if kind == "wheel":
        return wheel(size)
    if kind == "chain":
        return chain(size)
    if kind == "looped-chain":
        return chain(size, loops=(state_names(size)[-1],))
    if kind == "lazy-wheel":
        return wheel(size, loops=(draw(st.sampled_from(state_names(size))),))
    return synapse()


@st.composite
def sparse_machines(draw):
    """Up to 30 states; a wheel or chain emits on any drawn set of states,
    none included.  Wheels come most often: the other kinds halt or raise
    and end the run."""
    kind = draw(st.sampled_from(("wheel",) * 4 + ("chain", "looped-chain", "lazy-wheel", "binary")))
    size = draw(st.integers(1, 30))
    if kind == "binary":
        return synapse()
    if kind == "lazy-wheel":
        return wheel(size, loops=(draw(st.sampled_from(state_names(size))),))
    if kind == "looped-chain":
        machine = chain(size, loops=(state_names(size)[-1],))
    else:
        machine = (wheel if kind == "wheel" else chain)(size)
    emitting = draw(st.sets(st.sampled_from(machine.states)))
    return annotate_outputs(machine, {q: "1" if q in emitting else SILENT for q in machine.states})


@st.composite
def trees(draw, depth=3, kinds=machines):
    machine = draw(kinds())
    if depth == 1 or draw(st.booleans()):
        return ClusterNode.leaf(machine)
    states = draw(
        st.lists(st.sampled_from(machine.states), min_size=1, max_size=3, unique=True)
    )
    inner = tuple((state, draw(trees(depth - 1, kinds))) for state in states)
    scale = 1 + max(child.scale for _, child in inner)
    return ClusterNode(machine, scale, inner, draw(st.sampled_from(TICK_POLICIES)))


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except DomainError as exc:
        return type(exc), str(exc)


def tick_sequence(step, node, ticks):
    """Every (state, result) pair up to the first error, then the error."""
    state = initial_state(node)
    seen = []
    for _ in range(ticks):
        try:
            state, result = step(state, node)
        except DomainError as exc:
            seen.append((type(exc), str(exc)))
            break
        seen.append((state, result))
    return seen


@DIFFERENTIAL
@given(trees(), st.integers(0, 300))
def test_simulate_matches_reference(node, ticks):
    assert outcome(simulate, node, ticks) == outcome(ref.simulate, node, ticks)


def tailed_wheel(size: int) -> Automaton:
    """A state ``t`` leading into a wheel of ``size`` states that emits on
    its last one: a run that turns back to a position past its start."""
    cycle = [f"c{i}" for i in range(size)]
    edges = [("t", "e", cycle[0]), *zip(cycle, "e" * size, cycle[1:] + cycle[:1])]
    return Automaton.make(f"tailed-{size}", ["t", *cycle], ["e"], "t", {cycle[-1]: "1"}, edges)


@LONG_RUN
@given(trees(kinds=sparse_machines), st.integers(1000, 4000))
@example(product(tailed_wheel(10), wheel(97)), 1000)  # quiet stretches past the tail's end
def test_simulate_skips_and_laps_like_the_reference(node, ticks):
    assert outcome(simulate, node, ticks) == outcome(ref.simulate, node, ticks)


@DIFFERENTIAL
@given(trees(), st.integers(0, 120))
def test_tick_sequence_matches_reference(node, ticks):
    assert tick_sequence(tick, node, ticks) == tick_sequence(ref.tick, node, ticks)


@DIFFERENTIAL
@given(trees(), st.integers(1, 40))
def test_unfold_and_classify_match_reference(node, horizon):
    expected = outcome(ref.unfold, node, UNFOLD_LIMIT)
    assert outcome(unfold, node, UNFOLD_LIMIT) == expected
    if expected[0] is BudgetError:
        return  # the full-budget reference classification would be too slow
    for h in (horizon, DEFAULT_HORIZON):
        want = outcome(ref.classify, expected[1], h) if expected[0] == "ok" else expected
        assert outcome(classify, node, h) == want


def named_wheel(states, emitting) -> Automaton:
    """A wheel through ``states`` in order, emitting on ``emitting``."""
    return Automaton.make(
        "named-wheel",
        states,
        ("e",),
        states[0],
        {q: "1" for q in emitting},
        [(p, "e", q) for p, q in zip(states, states[1:] + states[:1])],
    )


# State names, inner ones included, that a template or the nesting syntax
# could misread: braces, a percent sign, brackets, "=" and ",".
ODD_NAMES = ClusterNode(
    named_wheel(("{", "a=b,c]", "%d"), ("%d",)),
    2,
    (
        ("{", ClusterNode.leaf(named_wheel(("{0}", "%s"), ("%s",)))),
        (
            "a=b,c]",
            ClusterNode(
                named_wheel(("}{", "[=}"), ("[=}",)),
                1,
                (("[=}", ClusterNode.leaf(named_wheel(("{}", ",", "%%"), ("%%",)))),),
                "union",
            ),
        ),
    ),
    "union",
)


# Names the JSON writer must escape: quotes, backslashes, control
# characters, and non-ASCII left as it is.
ESCAPED_NAMES = ClusterNode(
    named_wheel(('"', "\\", "\x00\n"), ("\\",)),
    1,
    (
        ('"', ClusterNode.leaf(named_wheel(("é", "\u2028"), ("é",)))),
        ("\x00\n", ClusterNode.leaf(named_wheel(("\U0001d11e",), ()))),
    ),
    "current-state",
)


@DIFFERENTIAL
@example(ODD_NAMES)
@example(ESCAPED_NAMES)
@given(trees())
def test_node_text_is_that_of_json_dumps(node):
    """Nested union, current-state and external trees of depth 1-3."""
    text = node_to_json(node)
    assert text == json.dumps(node_to_doc(node), indent=2, ensure_ascii=False) + "\n"
    assert node_from_json(text) == node


@DIFFERENTIAL
@example(ODD_NAMES)
@given(union_wheel_trees())
def test_unfold_of_union_wheel_trees_matches_reference(node):
    """Depth 1-4, any emitting sets: read off the period, not stepped."""
    assert outcome(unfold, node, UNFOLD_LIMIT) == outcome(ref.unfold, node, UNFOLD_LIMIT)


def unreachable_choice() -> Automaton:
    """A two-state wheel plus a nondeterministic state nothing leads to."""
    return Automaton.make(
        "unreachable-choice",
        ("a", "b", "c"),
        ("e",),
        "a",
        {"b": "1"},
        [("a", "e", "b"), ("b", "e", "a"), ("c", "e", "a"), ("c", "e", "b")],
    )


def idle_binary_slot() -> ClusterNode:
    """Current-state outer wheel that parks on "b" (no driver) before it
    ever reaches "c", whose slot holds a binary machine."""
    outer = wheel(3)
    return ClusterNode(
        outer,
        scale=1,
        inner=(("a", ClusterNode.leaf(wheel(2))), ("c", ClusterNode.leaf(synapse()))),
        tick_policy="current-state",
    )


@pytest.mark.parametrize(
    "node",
    [
        ClusterNode.leaf(unreachable_choice()),
        product(unreachable_choice(), wheel(3)),
        idle_binary_slot(),
    ],
    ids=["leaf", "product", "idle-binary-slot"],
)
def test_structures_never_driven_raise_nothing(node):
    assert simulate(node, 200) == ref.simulate(node, 200)
    assert unfold(node) == ref.unfold(node)
    assert classify(node) == ref.classify(node)
    ticked = tick_sequence(tick, node, 50)
    assert all(isinstance(result, TickResult) for _, result in ticked)
    assert ticked == tick_sequence(ref.tick, node, 50)


class TestClassifyCluster:
    """``classify(cluster)`` walks the configuration lasso; it must agree
    with classifying the unfolded machine."""

    @staticmethod
    def both(node, **kwargs):
        direct = classify(node, **kwargs)
        assert direct == classify(unfold(node), **kwargs)
        return direct

    def test_halting_chain(self):
        assert self.both(product(chain(3), wheel(2))) == TemporalClass("L", 3)

    def test_stem_into_a_self_loop(self):
        outer = wheel(3)
        node = ClusterNode(
            outer,
            scale=1,
            inner=(("a", ClusterNode.leaf(chain(2, loops=("b",)))),),
            tick_policy="current-state",
        )
        # a[a], then b[b] forever: the outer wheel parks where nothing drives it
        assert self.both(node) == TemporalClass("L", 2)

    def test_horizon_below_the_cycle(self):
        node = product(wheel(3), wheel(5))
        assert self.both(node) == TemporalClass("C", 30)
        assert self.both(node, horizon=29) == TemporalClass("Z", effective=True)

    def test_budget_error_past_the_unfold_budget(self):
        # Not a wheel tree, so classify walks the lasso: a stem of one
        # configuration into a cycle of 2 * lcm(331, 337) = 223,094.
        cycle = wheel(337)
        stem = Automaton.make(
            "stem-into-wheel",
            ("stem",) + cycle.states,
            cycle.inputs,
            "stem",
            cycle.outputs,
            (("stem", cycle.inputs[0], cycle.initial),) + cycle.edges,
        )
        node = product(wheel(331), stem)
        with pytest.raises(BudgetError) as direct:
            classify(node)
        with pytest.raises(BudgetError) as unfolded:
            unfold(node)
        assert str(direct.value) == str(unfolded.value) == "unfolding exceeded 100000 configurations"


def test_unfold_budget_counts_configurations_exactly():
    node = product(wheel(3), wheel(5))  # 30 configurations
    assert unfold(node, budget=30) == ref.unfold(node, budget=30)
    for fn in (unfold, ref.unfold):
        with pytest.raises(BudgetError, match="exceeded 29 configurations"):
            fn(node, budget=29)
