"""Kernels on the shared integer successor table against the string walks.

Random small machines (unary and multi-symbol, partial, nondeterministic,
with outputs, with state names whose order differs from their index order
and edges listed in random order) go through the machine queries and every
kernel, in ``cmoore`` and in ``kernels_reference``.  Each call must return
the same value, or raise the same error type with the same message.  Two
answers may differ in rounding or tie-breaking instead: a floating-point
stationary vector (Gauss-Seidel sweeps against the reference's
period-averaged power iteration) must agree within 1e-9 and be stationary
on its own, and a greedy synchronizing word (past ``subset_limit``) must
exist exactly when the reference's does and replay to its sink.  The
reference's cycle length holds only for inner wheels that emit once per turn,
on the state before their initial one; on any other emitting set, and on
union wheel trees of depth 1-4, the answer must be the first return found
by stepping ``cluster_reference``, and ``classify`` must agree with
classifying the unfolded machine.  The stationary vector is also checked
on 10-80-state machines of strongly connected blocks joined by one-way
edges, where several closed classes or a halting state are common, and on
sparse ones (0-3 extra edges per block) against a direct solve of the
balance equations, as power iteration mixes too slowly there.
Bisimulation is also checked on 20-200-state machines and their shuffled
copies, and the wheel approximation on random rational distributions under
small state budgets.
"""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import cluster_reference as cluster_ref
import kernels_reference as ref
from cmoore.analysis import (
    FiniteDistribution,
    approximate_distribution,
    monte_carlo_occupancy,
    path_count_occupancy,
    stationary_distribution,
    synchronizing_word,
)
from cmoore.cluster import (
    DEFAULT_HORIZON,
    ClusterNode,
    CycleLength,
    bisimilar,
    classify,
    cycle_length,
    digit_count,
    unfold,
)
from cmoore.errors import AmbiguousChainError, BudgetError, DomainError, InfeasibleError
from cmoore.machine import (
    Automaton,
    Constraints,
    FirstChooser,
    RandomChooser,
    run,
    transition_matrix,
)
from cmoore.menagerie import wheel

settings.register_profile(
    "kernels-differential",
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
DIFFERENTIAL = settings.get_profile("kernels-differential")

# Quotes and spaces make the repr-based bisimulation block order non-trivial.
NAMES = st.text(alphabet="ab' \"", min_size=1, max_size=3)
SYMBOLS = st.text(alphabet="exy", min_size=1, max_size=2)
OUTPUTS = st.sampled_from(("", "", "1", "2"))
UNKNOWN = "?"  # never a state or symbol name drawn above


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except DomainError as exc:
        return type(exc), str(exc)


@st.composite
def machines(draw, symbols=None, shape=None):
    """A machine of 1-6 states; ``shape`` picks how edges are drawn:
    "any" (random edge sets), "functional" (one successor per state and
    symbol, i.e. a complete DFA), "complete" (one or two successors),
    "sparse" (0-2 successors, mostly one) or "wheel" (one cycle through
    every state, in random order)."""
    states = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    k = symbols or draw(st.integers(1, 3))
    inputs = draw(st.lists(SYMBOLS, min_size=k, max_size=k, unique=True))
    shape = shape or draw(st.sampled_from(("any", "functional", "complete", "sparse", "wheel")))
    if shape == "any":
        candidates = [(p, a, q) for p in states for a in inputs for q in states]
        edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
    elif shape == "wheel":
        cycle = draw(st.permutations(states))
        edges = [(p, a, q) for p, q in zip(cycle, cycle[1:] + cycle[:1]) for a in inputs]
    else:
        counts = {"functional": (1,), "complete": (1, 2), "sparse": (0, 1, 1, 1, 2)}[shape]
        edges = []
        for p in states:
            for a in inputs:
                targets = draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))
                edges += [(p, a, q) for q in sorted(targets)[: draw(st.sampled_from(counts))]]
        edges = draw(st.permutations(edges))
    outputs = {q: draw(OUTPUTS) for q in states}
    return Automaton.make("m", states, inputs, draw(st.sampled_from(states)), outputs, edges)


def unary_machines(shape=None):
    return machines(symbols=1, shape=shape)


@DIFFERENTIAL
@given(machines())
def test_machine_queries_match_reference(m):
    assert m.deterministic == ref.deterministic(m)
    assert m.complete == ref.complete(m)
    for symbol in m.inputs + (UNKNOWN,):
        assert outcome(transition_matrix, m, symbol) == outcome(ref.transition_matrix, m, symbol)
        for state in m.states + (UNKNOWN,):
            assert outcome(m.successors, state, symbol) == outcome(ref.successors, m, state, symbol)


@DIFFERENTIAL
@given(machines(), st.data())
def test_run_matches_reference(m, data):
    word = data.draw(st.lists(st.sampled_from(m.inputs + (UNKNOWN,)), max_size=12))
    seed = data.draw(st.integers(0, 2**32))
    assert outcome(run, m, word) == outcome(ref.run, m, word)
    assert outcome(run, m, word, FirstChooser()) == outcome(ref.run, m, word, FirstChooser())
    assert outcome(run, m, word, RandomChooser(seed)) == outcome(
        ref.run, m, word, RandomChooser(seed)
    )


# a fork into two absorbing states: two closed classes
FORK = Automaton.make(
    "fork", "abc", "e", "a", {"b": "1"},
    [("a", "e", "c"), ("a", "e", "b"), ("b", "e", "b"), ("c", "e", "c")],
)


@DIFFERENTIAL
@example(FORK, 3, 0)
@given(
    st.one_of(unary_machines(), unary_machines("complete"), machines()),
    st.integers(-1, 30),
    st.integers(0, 2**32),
)
def test_occupancy_kernels_match_reference(m, steps, seed):
    assert outcome(path_count_occupancy, m, steps) == outcome(ref.path_count_occupancy, m, steps)
    check_stationary(m)
    assert outcome(monte_carlo_occupancy, m, steps, seed) == outcome(
        ref.monte_carlo_occupancy, m, steps, seed
    )


def check_stationary(m, oracle=ref.stationary_distribution):
    """Errors and exact vectors match the reference ``oracle`` exactly; a
    float vector has the same states, is within 1e-9 of the oracle's entry
    by entry, and its own residual ||vP - v||_1 is below 1e-10."""
    got = outcome(stationary_distribution, m)
    want = outcome(oracle, m)
    if got[0] != "ok" or want[0] != "ok" or want[1].exact:
        assert got == want
        return
    vector, expected = got[1], want[1]
    assert not vector.exact
    assert [q for q, _ in vector.entries] == [q for q, _ in expected.entries]
    assert all(abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(vector.entries, expected.entries))
    v = vector.as_dict()
    pushed = dict.fromkeys(v, 0.0)
    for p, mass in v.items():
        targets = ref.successors(m, p, m.inputs[0])
        for q in targets:
            pushed[q] += mass / len(targets)
    assert sum(abs(pushed[q] - v[q]) for q in v) < 1e-10


@st.composite
def block_machines(draw, extra_edges=None):
    """A unary machine of 10-80 states, built from a drawn seed: 1-6
    strongly connected blocks, each a cycle with about half as many extra
    edges and self-loops inside (so the reference's power iteration mixes
    fast), or with a number of them drawn from the range ``extra_edges``,
    and one-way edges from each block to some later ones, so several
    blocks may be sinks.  About one machine in four also has a halting
    state, entered from one block."""
    rng = Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(10, 80))
    names = rng.sample([f"s{i}" for i in range(n)], n)
    halting = names.pop() if rng.random() < 0.25 else None
    cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, 5)))
    blocks = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    edges = set()
    for block in blocks:
        edges.update(zip(block, block[1:] + block[:1]))
        if extra_edges is None:
            edges.update((rng.choice(block), rng.choice(block)) for _ in block if rng.random() < 0.5)
        else:
            extra = range(rng.randint(*extra_edges))
            edges.update((rng.choice(block), rng.choice(block)) for _ in extra)
    for i, block in enumerate(blocks):
        for later in blocks[i + 1 :]:
            if rng.random() < 0.4:
                edges.add((rng.choice(block), rng.choice(later)))
    if halting:
        edges.add((rng.choice(rng.choice(blocks)), halting))
    edges = [(p, "e", q) for p, q in sorted(edges)]
    rng.shuffle(edges)
    outputs = {q: rng.choice(("", "1")) for q in names}
    states = names + [halting] if halting else names
    states = rng.sample(states, len(states))
    return Automaton.make("blocks", states, ("e",), names[0], outputs, edges)


@settings(DIFFERENTIAL, max_examples=100)
@given(block_machines())
def test_stationary_matches_reference_on_block_machines(m):
    """The reference finds closed classes by Kosaraju's two passes and a
    scan, so ``AmbiguousChainError.classes`` is compared as well."""
    check_stationary(m)
    try:
        stationary_distribution(m)
    except AmbiguousChainError as exc:
        with pytest.raises(AmbiguousChainError) as want:
            ref.stationary_distribution(m)
        assert exc.classes == want.value.classes
    except DomainError:
        pass  # compared by check_stationary


@settings(DIFFERENTIAL, max_examples=100)
@given(block_machines(extra_edges=(0, 3)))
def test_stationary_matches_a_direct_solve_on_sparse_block_machines(m):
    """With 0-3 extra edges per block the closed classes mix slowly, so the
    oracle solves their balance equations directly instead of iterating."""
    check_stationary(m, ref.stationary_by_solve)


BUDGETS = st.sampled_from((1, 3, 10, 1_000_000))


@st.composite
def larger_dfas(draw):
    """A complete DFA of 7-40 states over 1-3 letters, past the subset
    search's reach in these tests.  Each letter is a random map or, one time
    in three, a permutation, so some pairs never merge."""
    n = draw(st.integers(7, 40))
    states = draw(st.permutations([f"q{i}" for i in range(n)]))
    edges = []
    for symbol in ("x", "y", "z")[: draw(st.integers(1, 3))]:
        if draw(st.integers(0, 2)) == 0:
            targets = draw(st.permutations(range(n)))
        else:
            targets = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        edges += [(p, symbol, states[t]) for p, t in zip(states, targets)]
    inputs = sorted({symbol for _, symbol, _ in edges})
    return Automaton.make("dfa", states, inputs, states[0], {}, edges)


@DIFFERENTIAL
@given(st.one_of(machines(shape="functional"), machines()), st.data(), BUDGETS)
def test_synchronizing_word_matches_reference(m, data, budget):
    """Up to ``subset_limit`` states the subset search answers, as before."""
    subset_limit = data.draw(st.integers(len(m.states), 7))
    assert outcome(synchronizing_word, m, subset_limit, budget) == outcome(
        ref.synchronizing_word, m, subset_limit, budget
    )


@DIFFERENTIAL
@given(st.one_of(machines(shape="functional"), machines(), larger_dfas()), st.data(), BUDGETS)
def test_greedy_synchronizing_word_replays(m, data, budget):
    """Past ``subset_limit`` the greedy word may differ from the reference's,
    whose merges break ties differently; it exists exactly when the
    reference's does and sends every state to the sink."""
    assume(len(m.states) > 1)
    subset_limit = data.draw(st.integers(0, len(m.states) - 1))
    got = outcome(synchronizing_word, m, subset_limit, budget)
    want = outcome(ref.synchronizing_word, m, subset_limit, budget)
    if want[0] != "ok" or want[1] is None:
        assert got == want
        return
    kind, result = got
    assert kind == "ok" and result is not None
    assert not result.shortest
    image = set(m.states)
    for symbol in result.word:
        image = {ref.successors(m, q, symbol)[0] for q in image}
    assert image == {result.sink}
    assert result.sink_is_initial == (result.sink == m.initial)


@DIFFERENTIAL
@given(st.one_of(unary_machines(), machines()), st.one_of(unary_machines(), machines()))
def test_bisimilar_matches_reference(left, right):
    assert outcome(bisimilar, left, right) == outcome(ref.bisimilar, left, right)


@st.composite
def large_unary_machines(draw):
    """A unary machine of 20-200 states, built from a drawn seed: random edge
    sets (0-3 successors per state), chains of 1-30 states that mostly end
    in a halting state, or a lazy wheel (one cycle in random order, with a
    self-loop on about half the states).  One state in 2, 4 or 10 emits."""
    n = draw(st.integers(20, 200))
    shape = draw(st.sampled_from(("random", "chains", "lazy-wheel")))
    rng = Random(draw(st.integers(0, 2**32)))
    names = [f"s{i}" for i in range(n)]
    order = rng.sample(names, n)
    edges = []
    if shape == "random":
        for p in names:
            edges += [(p, "e", q) for q in rng.sample(names, rng.choice((0, 1, 1, 2, 3)))]
    elif shape == "chains":
        start = 0
        while start < n:
            stop = min(n, start + rng.randint(1, 30))
            edges += [(p, "e", q) for p, q in zip(order[start:stop], order[start + 1 : stop])]
            if rng.random() < 0.3:
                edges.append((order[stop - 1], "e", rng.choice(names)))
            start = stop
    else:
        edges += [(p, "e", q) for p, q in zip(order, order[1:] + order[:1])]
        edges += [(p, "e", p) for p in names if rng.random() < 0.5]
    density = rng.choice((2, 4, 10))
    outputs = {q: "1" if rng.randrange(density) == 0 else "" for q in names}
    rng.shuffle(edges)
    return Automaton.make(shape, names, ("e",), rng.choice(names), outputs, edges)


def shuffled_copy(m, seed):
    """``m`` with its states renamed and listed, and its edges given, in a
    random order: bisimilar to ``m``, with blocks first met in another order."""
    rng = Random(seed)
    order = rng.sample(m.states, len(m.states))
    rename = {q: f"r{i}" for i, q in enumerate(order)}
    edges = [(rename[p], a, rename[q]) for p, a, q in m.edges]
    rng.shuffle(edges)
    outputs = {rename[q]: out for q, out in m.output_map.items()}
    return Automaton.make("copy", [rename[q] for q in order], m.inputs, rename[m.initial], outputs, edges)


@settings(DIFFERENTIAL, max_examples=15)
@given(large_unary_machines(), st.one_of(large_unary_machines(), st.integers(0, 2**32)))
def test_bisimilar_matches_reference_on_large_machines(left, right):
    """The reference relabels every state each round, so it takes about a
    second at 200 states; few examples keep the run short."""
    if isinstance(right, int):
        right = shuffled_copy(left, right)
    assert bisimilar(left, right) == ref.bisimilar(left, right)


@st.composite
def distributions(draw):
    """1-5 outcomes, some perhaps 0, over one random denominator."""
    r = draw(st.integers(1, 5))
    denominator = draw(st.sampled_from((1, 2, 3, 7, 10, 97, 1000)) | st.integers(1, 10**6))
    cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=r - 1, max_size=r - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, denominator])]
    return FiniteDistribution.make([(f"o{i}", Fraction(x, denominator)) for i, x in enumerate(parts)])


def approximation(fn, distribution, epsilon, constraints):
    """The returned machine, or the error with its best epsilon and size."""
    try:
        return "ok", fn(distribution, epsilon, constraints)
    except InfeasibleError as exc:
        return str(exc), exc.best_epsilon, exc.best_size
    except DomainError as exc:
        return type(exc), str(exc)


@DIFFERENTIAL
@given(
    distributions(),
    st.fractions(max_value=Fraction(1, 2), max_denominator=10**9) | st.floats(1e-9, 0.5),
    st.integers(1, 400),
)
def test_approximate_distribution_matches_reference(distribution, epsilon, max_states):
    """Below one state per outcome the reference fails with a ``TypeError``
    while formatting its message; the scan now refuses such a budget up
    front instead."""
    constraints = Constraints(max_states=max_states)
    got = approximation(approximate_distribution, distribution, epsilon, constraints)
    if epsilon > 0 and max_states < len(distribution.outcomes):
        assert "one per outcome" in got[0] and got[1:] == (None, None)
        return
    assert got == approximation(ref.approximate_distribution, distribution, epsilon, constraints)


@DIFFERENTIAL
@given(st.one_of(unary_machines(), machines()), st.integers(0, 8))
def test_classify_matches_reference(m, horizon):
    for h in (horizon, DEFAULT_HORIZON):
        assert outcome(classify, m, h) == outcome(ref.classify, m, h)


@st.composite
def wheel_clusters(draw):
    """A leaf, or an outer machine over 1-3 leaves under either driving
    policy; unary wheels are likely enough that most answers are cycle
    lengths."""

    def part():
        if draw(st.integers(0, 4)) == 0:
            return draw(machines())
        return draw(unary_machines(draw(st.sampled_from(("wheel", "wheel", "wheel", "sparse")))))

    outer = part()
    hosts = draw(st.lists(st.sampled_from(outer.states), max_size=3, unique=True))
    if not hosts:
        return ClusterNode.leaf(outer)
    inner = tuple((q, ClusterNode.leaf(part())) for q in hosts)
    return ClusterNode(outer, 1, inner, draw(st.sampled_from(("union", "union", "current-state"))))


def signals_once_per_turn(machine):
    """Whether a wheel emits exactly on the state before its initial one,
    the emission pattern the reference's closed form assumes."""
    tick = machine.inputs[0]
    return all(
        (machine.output_map[q] != "") == (ref.successors(machine, q, tick) == (machine.initial,))
        for q in machine.states
    )


def stepped_cycle(node):
    """The outcome ``cycle_length`` must give: the first return by stepping."""
    ticks = cluster_ref.first_return(node)
    return "ok", CycleLength(ticks, digit_count(ticks), True)


@DIFFERENTIAL
@given(wheel_clusters())
def test_cycle_length_matches_reference(node):
    """Errors match the reference exactly, and so do its answers on inner
    wheels that emit once per turn, on the state before their initial one.
    Its closed form assumes that pattern, so on other emitting sets the
    answer must be the first return found by stepping the cluster."""
    want = outcome(ref.cycle_length, node)
    if want[0] == "ok" and not all(signals_once_per_turn(c.machine) for _, c in node.inner):
        want = stepped_cycle(node)
    assert outcome(cycle_length, node) == want


@st.composite
def union_wheel_trees(draw, depth=4):
    """A wheel of 1-4 states in random order, emitting on a random set of
    them.  Unless ``depth`` is 1, it usually holds 1-2 such trees of depth
    ``depth - 1`` on random states, under the union policy."""
    states = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    cycle = draw(st.permutations(states))
    machine = Automaton.make(
        "w",
        states,
        ("e",),
        draw(st.sampled_from(states)),
        {q: "1" for q in draw(st.sets(st.sampled_from(states)))},
        [(p, "e", q) for p, q in zip(cycle, cycle[1:] + cycle[:1])],
    )
    if depth == 1 or not draw(st.integers(0, 3)):
        return ClusterNode.leaf(machine, 0)
    hosts = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True))
    inner = tuple((q, draw(union_wheel_trees(depth - 1))) for q in hosts)
    return ClusterNode(machine, max(c.scale for _, c in inner) + 1, inner, "union")


def union_over_wheels(size, scale, *inner):
    outer = wheel(size)
    return ClusterNode(outer, scale, tuple(zip(outer.states, inner)), "union")


# The middle wheel advances on every tick but emits on every other one: its
# parent must mark the ticks at which it emits, not the ticks of any advance.
PHASED = union_over_wheels(
    2,
    2,
    union_over_wheels(2, 1, ClusterNode.leaf(wheel(2)), ClusterNode.leaf(wheel(1))),
    ClusterNode.leaf(wheel(2)),
)


@DIFFERENTIAL
@example(PHASED)
@given(union_wheel_trees())
def test_cycle_length_of_union_wheel_trees_matches_stepping(node):
    """Depth 1-4, any emitting sets: the first return found by stepping."""
    assert outcome(cycle_length, node) == stepped_cycle(node)


@DIFFERENTIAL
@given(union_wheel_trees(), st.integers(0, 400))
def test_classify_of_union_wheel_trees_matches_the_unfolded_machine(node, horizon):
    """``classify`` reads the period summary; the unfolded machine is walked."""
    try:
        unfolded = unfold(node)
    except BudgetError:
        assume(False)
    for h in (horizon, DEFAULT_HORIZON):
        assert classify(node, h) == classify(unfolded, h)
