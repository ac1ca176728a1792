"""Core Moore machine behavior: validation, stepping, runs, serialization."""
import json
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from cmoore.errors import InputDomainError
from cmoore.machine import (
    Automaton,
    Constraints,
    FirstChooser,
    Violation,
    RandomChooser,
    from_doc,
    from_json,
    run,
    step,
    to_doc,
    to_dot,
    to_json,
    transition_matrix,
    validate,
)
from cmoore.menagerie import chain, gallery, synapse, wheel, wire


TWO_WHEEL = {
    "name": "f", "states": ["a", "b"], "initial": "a", "inputs": ["e"],
    "outputs": {"b": "1"}, "edges": [["a", "e", "b"], ["b", "e", "a"]],
}

# each but the last two loads as a two-state wheel if strings pass for lists
# or numbers for strings
MALFORMED_MACHINES = {
    "states-string": {**TWO_WHEEL, "states": "ab"},
    "edges-strings": {**TWO_WHEEL, "edges": ["aeb", "bea"]},
    "states-numbers": {**TWO_WHEEL, "states": [1, 2], "initial": 1, "outputs": {},
                       "edges": [[1, "e", 2], [2, "e", 1]]},
    "output-number": {**TWO_WHEEL, "outputs": {"b": 1}},
    "outputs-list": {**TWO_WHEEL, "outputs": [["b", "1"]]},
    "edge-pair": {**TWO_WHEEL, "edges": [["a", "e"], ["b", "e", "a"]]},
    "not-an-object": [TWO_WHEEL],
}


def looped_two_wheel():
    return wheel(2, loops=("a",))


# Names the JSON writer must escape or pass through: quotes, backslashes,
# control characters, non-ASCII (the astral plane and the line separators
# included) and braces.
ODD_NAMES = ('"', "\\", "a\"b\\c", "\x00", "\x1f", "\n\t\r\b\f", "\x7f", "é", "☃",
             "\U0001d11e", "\u2028\u2029", "{}", "{0}", "}{", "", " ")
NAMES = st.one_of(st.sampled_from(ODD_NAMES), st.text(max_size=4))


@st.composite
def named_machines(draw):
    """1-5 states and 1-3 symbols named from ``NAMES``; any outputs and any
    edges, none of either included."""
    states = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    inputs = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    outputs = draw(st.dictionaries(st.sampled_from(states), NAMES))
    triples = [(p, a, q) for p in states for a in inputs for q in states]
    edges = draw(st.lists(st.sampled_from(triples), max_size=12, unique=True))
    return Automaton.make(draw(NAMES), states, inputs, draw(st.sampled_from(states)),
                          outputs, edges)


def random_machine(size: int, seed: int) -> Automaton:
    """Out-degree 1-3 on a random 1-3 letter alphabet, but 8 on about one
    state in 100; in-degrees vary around the mean."""
    rng = Random(seed)
    symbols = ["x", "y", "z"][: rng.randint(1, 3)]
    states = [f"m{i}" for i in range(size)]
    edges = []
    for q in states:
        degree = 8 if rng.random() < 0.01 else rng.randint(1, 3)
        mine = set()
        while len(mine) < degree:
            mine.add((q, rng.choice(symbols), rng.choice(states)))
        edges += sorted(mine)
    return Automaton.make("random", states, symbols, states[0], edges=edges)


class TestConstruction:
    def test_initial_must_be_a_state(self):
        with pytest.raises(ValueError):
            Automaton.make("m", ["a"], ["e"], "z")

    def test_edges_must_use_known_states_and_symbols(self):
        with pytest.raises(ValueError):
            Automaton.make("m", ["a"], ["e"], "a", edges=[("a", "e", "b")])
        with pytest.raises(ValueError):
            Automaton.make("m", ["a"], ["e"], "a", edges=[("a", "x", "a")])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Automaton.make("m", ["a"], ["e"], "a", edges=[("a", "e", "a"), ("a", "e", "a")])

    def test_the_first_offending_edge_is_named(self):
        edges = [("a", "e", "a"), ("a", "x", "a"), ("a", "e", "zz"), ("zz", "x", "a")]
        with pytest.raises(ValueError) as info:
            Automaton.make("m", ["a"], ["e"], "a", edges=edges)
        assert str(info.value) == "edge ('a', 'x', 'a') uses an unknown symbol"
        with pytest.raises(ValueError) as info:
            Automaton.make("m", ["a"], ["e"], "a", edges=edges[:1] + edges[2:])
        assert str(info.value) == "edge ('a', 'e', 'zz') touches an unknown state"

    @pytest.mark.parametrize("edge", [("zz", "x", "a"), ("a", "x", "zz")])
    def test_an_unknown_state_is_reported_before_an_unknown_symbol(self, edge):
        with pytest.raises(ValueError) as info:
            Automaton.make("m", ["a"], ["e"], "a", edges=[edge])
        assert str(info.value) == f"edge {edge!r} touches an unknown state"

    @pytest.mark.parametrize(
        "edge, message",
        [
            (("a", "e"), "not enough values to unpack (expected 3, got 2)"),
            (("a", "e", "a", "a"), "too many values to unpack (expected 3)"),
        ],
    )
    def test_an_edge_of_the_wrong_arity_is_rejected(self, edge, message):
        with pytest.raises(ValueError) as info:
            Automaton.make("m", ["a"], ["e"], "a", edges=[("a", "e", "a"), edge])
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            Automaton("m", ("a",), ("e",), "a", (), (("a", "e", "a"), edge))
        assert str(info.value) == message

    def test_duplicate_edges_are_reported_by_message(self):
        edges = [("a", "e", "a"), ("a", "e", "b"), ("a", "e", "a")]
        with pytest.raises(ValueError) as info:
            Automaton.make("m", ["a", "b"], ["e"], "a", edges=edges)
        assert str(info.value) == "duplicate edges"
        # they are found before any edge is checked against the states
        with pytest.raises(ValueError) as info:
            Automaton.make("m", ["a"], ["e"], "a", edges=[("a", "e", "zz")] * 2)
        assert str(info.value) == "duplicate edges"

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([["a", "e", "b"], ("b", 1, "a")], "('b', 1, 'a')"),
            ([["a", "e", "b"], ["b", None, "a"], ["b", 2, "a"]], "['b', None, 'a']"),
            ([["a", "e", "b"], ["b", "e"]], "['b', 'e']"),
            ([["a", "e", "b", "a"], ["b", "e"]], "['a', 'e', 'b', 'a']"),
            ([["a", "e", "b"], "bea"], "'bea'"),
        ],
        ids=["tuple-row", "non-string-cell", "short-row", "long-row", "string-row"],
    )
    def test_a_malformed_document_row_is_named(self, rows, named):
        doc = {**TWO_WHEEL, "edges": rows}
        with pytest.raises(InputDomainError) as info:
            from_doc(doc)
        assert str(info.value) == (
            f"malformed machine document: each of edges must be a list of 3 strings, got {named}"
        )

    def test_a_tuple_row_reads_like_a_list(self):
        doc = {**TWO_WHEEL, "edges": [("a", "e", "b"), ["b", "e", "a"]]}
        assert from_doc(doc) == from_doc(TWO_WHEEL)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Automaton("m", (), ("e",), "a"), "a machine needs at least one state"),
            (lambda: Automaton("m", ("a", "a"), ("e",), "a"), "duplicate state identifiers"),
            (lambda: Automaton("m", ("a",), ("e", "e"), "a"), "duplicate input symbols"),
            (lambda: Automaton("m", ("a",), ("e",), "a", (("a", "1"), ("zz", "1"), ("yy", "1"))),
             "output attached to unknown state 'zz'"),
            (lambda: Automaton.make("m", ["a"], ["e"], "a", {"a": "1", "zz": ""}),
             "output attached to unknown state 'zz'"),
            # to_json would write both and from_json keep the last
            (lambda: Automaton("m", ("a", "b"), ("e",), "a", (("a", "1"), ("b", "1"), ("a", "2"))),
             "state 'a' is given more than one output"),
            (lambda: Automaton("m", ("a",), ("e",), "a", (("a", "1", "2"),)),
             "dictionary update sequence element #0 has length 3; 2 is required"),
        ],
        ids=["no-states", "duplicate-states", "duplicate-inputs", "unknown-output-state",
             "make-unknown-output-state", "two-outputs", "output-triple"],
    )
    def test_a_refused_machine_names_its_fault(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            Automaton.make("m", ["a"], [], "a")

    def test_determinism_and_completeness_flags(self):
        assert looped_two_wheel().deterministic is False
        assert looped_two_wheel().complete is True
        assert chain(3).deterministic is True
        assert chain(3).complete is False


class TestValidate:
    def test_looped_two_wheel_passes_defaults(self):
        assert validate(looped_two_wheel()) == []

    def test_state_budget(self):
        names = [f"s{i}" for i in range(10_001)]
        edges = [(names[i], "e", names[(i + 1) % len(names)]) for i in range(len(names))]
        big = Automaton.make("big", names, ["e"], names[0], edges=edges)
        report = validate(big)
        assert [v.rule for v in report] == ["ss"]

    def test_input_alphabet_budget(self):
        symbols = [f"x{i}" for i in range(257)]
        m = Automaton.make("io", ["a"], symbols, "a")
        report = validate(m)
        assert [v.rule for v in report] == ["io"]
        assert report[0].subject == "input-alphabet"

    def test_output_alphabet_budget(self):
        states = [f"s{i}" for i in range(257)]
        outputs = {q: f"sig{i}" for i, q in enumerate(states)}
        m = Automaton.make("oo", states, ["e"], states[0], outputs=outputs)
        assert [v.rule for v in validate(m)] == ["io"]

    def test_out_degree_bound_is_strict(self):
        symbols = [f"x{i}" for i in range(8)]
        m = Automaton.make(
            "od", ["a"], symbols, "a", edges=[("a", s, "a") for s in symbols]
        )
        rules = [v.rule for v in validate(m)]
        assert rules.count("od") == 1
        seven = Automaton.make(
            "od7", ["a"], symbols[:7], "a", edges=[("a", s, "a") for s in symbols[:7]]
        )
        assert validate(seven) == []

    def test_in_degree_bound(self):
        sources = [f"s{i}" for i in range(10_000)]
        states = sources + ["hub"]
        edges = [(s, "e", "hub") for s in sources]
        m = Automaton.make("id", states, ["e"], "hub", edges=edges)
        rules = {v.rule for v in validate(m)}
        assert "id" in rules  # in-degree 10^4 is already over the strict bound
        assert "ss" in rules  # 10_001 states

    @pytest.mark.parametrize("seed", [1, 2])
    def test_report_matches_a_per_state_count(self, seed):
        machine = random_machine(3000, seed)
        limits = Constraints(max_in_degree=7)
        out_deg = {q: 0 for q in machine.states}
        in_deg = {q: 0 for q in machine.states}
        for src, _, dst in machine.edges:
            out_deg[src] += 1
            in_deg[dst] += 1
        want = [Violation("od", q, f"out-degree {out_deg[q]} >= 8")
                for q in machine.states if out_deg[q] >= 8]
        want += [Violation("id", q, f"in-degree {in_deg[q]} >= 7")
                 for q in machine.states if in_deg[q] >= 7]
        assert validate(machine, limits) == want
        assert sum(v.rule == "od" for v in want) > 10
        assert sum(v.rule == "id" for v in want) > 0

    def test_custom_constraints(self):
        m = wheel(5)
        report = validate(m, Constraints(max_states=4))
        assert [v.rule for v in report] == ["ss"]


class TestStep:
    def test_looped_two_wheel_choices(self):
        m = looped_two_wheel()
        assert set(step(m, "a", "e")) == {("a", ""), ("b", "1")}
        assert step(m, "b", "e") == (("a", ""),)

    def test_wire_routes_any_state_to_symbol(self):
        m = wire(("x", "y"))
        for state in m.states:
            assert step(m, state, "x") == (("x", "x"),)

    def test_unknown_state_or_symbol(self):
        m = looped_two_wheel()
        with pytest.raises(InputDomainError):
            step(m, "zz", "e")
        with pytest.raises(InputDomainError):
            step(m, "a", "q")
        with pytest.raises(InputDomainError, match="unknown state 'zz'$"):
            m.output_of("zz")

    def test_degrees_and_repr(self):
        m = looped_two_wheel()
        assert (m.out_degree("a"), m.in_degree("a"), m.in_degree("b")) == (2, 2, 1)
        assert repr(m) == "Automaton('wheel-2,loops=a', states=2, inputs=1, edges=3)"


class TestRun:
    def test_four_wheel_signals_twice_over_eight_ticks(self):
        m = wheel(4)
        trace = run(m, ["e"] * 8)
        assert trace.steps == 8
        assert len(trace.visited) == 9
        assert trace.visited[0] == trace.visited[4] == trace.visited[8] == m.initial
        assert trace.emitted.count("1") == 2
        assert not trace.halted

    def test_chain_halts_and_truncates(self):
        trace = run(chain(3), ["e"] * 5)
        assert trace.halted
        assert trace.steps == 2
        assert len(trace.visited) == 3
        assert len(trace.emitted) == 3

    def test_seeded_runs_are_reproducible(self):
        m = looped_two_wheel()
        first = run(m, ["e"] * 50, RandomChooser(0))
        second = run(m, ["e"] * 50, RandomChooser(0))
        assert first == second
        third = run(m, ["e"] * 50, RandomChooser(1))
        assert third != first  # overwhelmingly likely for 50 coin flips

    def test_nondeterminism_needs_a_chooser(self):
        with pytest.raises(InputDomainError):
            run(looped_two_wheel(), ["e"] * 3)

    def test_deterministic_complete_machines_ignore_the_chooser(self):
        m = wheel(6)
        assert run(m, ["e"] * 20, FirstChooser()) == run(m, ["e"] * 20, RandomChooser(7))

    def test_trace_length_invariant(self):
        trace = run(looped_two_wheel(), ["e"] * 9, RandomChooser(3))
        assert len(trace.visited) == trace.steps + 1
        assert len(trace.emitted) == trace.steps + 1


class TestTransitionMatrix:
    def test_looped_two_wheel_matrix(self):
        assert transition_matrix(looped_two_wheel(), "e") == [[1, 1], [1, 0]]

    def test_three_wheel_is_a_cyclic_permutation(self):
        assert transition_matrix(wheel(3), "e") == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_two_chain(self):
        assert transition_matrix(chain(2), "e") == [[0, 1], [0, 0]]

    def test_unknown_symbol(self):
        with pytest.raises(InputDomainError):
            transition_matrix(wheel(2), "x")

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_row_sums_equal_out_degrees(self, size, data):
        names = [f"s{i}" for i in range(size)]
        pairs = [(p, q) for p in names for q in names]
        chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
        m = Automaton.make(
            "rand", names, ["e"], names[0], edges=[(p, "e", q) for p, q in sorted(chosen)]
        )
        matrix = transition_matrix(m, "e")
        for i, q in enumerate(names):
            assert sum(matrix[i]) == m.out_degree(q)


class TestDot:
    def count(self, text):
        nodes = text.count("shape=")
        arrows = text.count("->")
        return nodes, arrows

    def test_single_wheel(self):
        assert self.count(to_dot(wheel(1))) == (1, 1)

    def test_looped_two_wheel(self):
        assert self.count(to_dot(looped_two_wheel())) == (2, 3)

    def test_synapse_with_all_loops(self):
        assert self.count(to_dot(synapse())) == (4, 7)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("machine", gallery(), ids=lambda m: m.name)
    def test_serialize_parse_serialize_is_byte_identical(self, machine):
        text = to_json(machine)
        again = to_json(from_json(text))
        assert text == again
        assert from_json(text) == machine

    @given(named_machines())
    @example(Automaton.make("one", ["q"], ["e"], "q"))
    @example(Automaton.make('"', ["\\"], ["\x00"], "\\", {"\\": "é"}))
    @example(Automaton.make("{}", ["a", "b"], ["e"], "a", edges=[("a", "e", "b")]))
    def test_text_is_that_of_json_dumps(self, machine):
        text = to_json(machine)
        assert text == json.dumps(to_doc(machine), indent=2, ensure_ascii=False) + "\n"
        assert from_json(text) == machine

    def test_malformed_document(self):
        with pytest.raises(InputDomainError):
            from_json('{"name": "x"}')

    @pytest.mark.parametrize("machine", gallery(), ids=lambda m: m.name)
    def test_document_round_trip(self, machine):
        assert from_doc(to_doc(machine)) == machine

    @pytest.mark.parametrize("doc", MALFORMED_MACHINES.values(), ids=MALFORMED_MACHINES.keys())
    def test_wrong_shape_document_is_malformed(self, doc):
        with pytest.raises(InputDomainError, match="^malformed machine document: "):
            from_doc(doc)

    def test_text_that_is_not_json_is_a_malformed_machine(self):
        with pytest.raises(InputDomainError, match="^malformed machine document: Expecting"):
            from_json("{not json")
