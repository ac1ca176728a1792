"""Shapes and invariants of the canonical machine constructors."""
import time

import pytest

from cmoore.errors import InputDomainError
from cmoore.machine import Constraints, run, transition_matrix, validate
from cmoore.menagerie import (
    aktionsart,
    annotate_outputs,
    build,
    chain,
    gallery,
    schema,
    state_names,
    synapse,
    wheel,
    wire,
)


def test_state_names_are_spreadsheet_style():
    names = state_names(30)
    assert names[:3] == ("a", "b", "c")
    assert names[25] == "z"
    assert names[26] == "aa"
    assert len(set(names)) == 30


class TestWheel:
    def test_fig_matrix_for_looped_two_wheel(self):
        assert transition_matrix(wheel(2, loops=("a",)), "e") == [[1, 1], [1, 0]]

    def test_returns_to_start_in_exactly_k_ticks(self):
        for k in (1, 2, 5, 9):
            m = wheel(k)
            trace = run(m, ["e"] * k)
            assert trace.visited[-1] == m.initial
            assert m.initial not in trace.visited[1:-1]

    def test_exactly_one_signaling_state(self):
        m = wheel(7)
        signals = [q for q in m.states if m.output_of(q) == "1"]
        assert signals == [m.states[-1]]

    def test_unknown_loop_state(self):
        with pytest.raises(InputDomainError):
            wheel(3, loops=("zz",))

    def test_fully_looped_myriad_wheel(self):
        started = time.perf_counter()
        m = wheel(10_000, loops=state_names(10_000))
        assert time.perf_counter() - started < 1.0  # a scan of the edge list per loop takes seconds
        assert len(m.edges) == 20_000
        assert m.edges[10_000:] == tuple((q, "e", q) for q in m.states)

    def test_size_must_be_positive(self):
        with pytest.raises(InputDomainError):
            wheel(0)

    @pytest.mark.parametrize("builder", [wheel, chain])
    def test_a_repeated_loop_state_adds_one_self_loop(self, builder):
        twice = builder(3, loops=("a", "c", "a"))
        once = builder(3, loops=("a", "c"))
        assert twice.edges == once.edges
        assert twice.name == f"{builder.__name__}-3,loops=a+c+a"

    def test_a_loop_on_the_one_state_wheel_is_its_cycle_edge(self):
        assert wheel(1, loops=("a", "a")).edges == wheel(1).edges == (("a", "e", "a"),)


class TestChain:
    def test_halts_after_size_minus_one_ticks(self):
        for k in (1, 3, 6):
            trace = run(chain(k), ["e"] * (k + 2))
            assert trace.steps == k - 1
            assert trace.halted

    def test_is_wheel_minus_closing_edge(self):
        w, c = wheel(5), chain(5)
        assert set(c.edges) == set(w.edges) - {(w.states[-1], "e", w.states[0])}


class TestSynapse:
    def test_all_loops_shape(self):
        m = synapse()
        assert len(m.states) == 4
        arrows = {(src, dst) for src, _, dst in m.edges}
        assert len(arrows) == 7
        assert validate(m) == []

    def test_transmit_state_never_loops(self):
        for loops in ((), ("r",), ("r", "a"), ("r", "a", "b")):
            m = synapse(loops=loops)
            assert ("t", "e", "t") not in m.edges
            assert ("t", "1", "t") not in m.edges

    def test_loops_restricted_to_permitted_states(self):
        with pytest.raises(InputDomainError):
            synapse(loops=("t",))

    def test_output_on_transmit_entry(self):
        m = synapse()
        assert m.output_of("t") == "1"

    def test_refractory_every_path_from_t_passes_b(self):
        m = synapse()
        for symbol in m.inputs:
            for nxt in m.successors("t", symbol):
                assert nxt == "b"

    def test_two_impulses_reach_transmit(self):
        m = synapse()
        state = "r"
        (state,) = m.successors(state, "1")
        assert state == "a"
        (state,) = m.successors(state, "1")
        assert state == "t"

    def test_spontaneous_arousal_is_off_by_default(self):
        assert "a" not in synapse().successors("r", "e")
        assert "a" in synapse(spontaneous_arousal=True).successors("r", "e")


class TestWire:
    def test_state_and_degree_counts(self):
        m = wire(("0", "1", "μ", "ν"))
        assert len(m.states) == 5
        assert all(m.out_degree(q) == 4 for q in m.states)
        assert validate(m) == []

    def test_relays_its_input(self):
        m = wire(("x", "y"))
        for state in m.states:
            assert m.successors(state, "y") == ("y",)
        assert m.output_of("y") == "y"

    def test_needs_a_symbol(self):
        with pytest.raises(InputDomainError, match="^a wire needs at least one symbol$"):
            wire(())

    def test_reserved_rest_name(self):
        with pytest.raises(InputDomainError):
            wire(("rest",))

    @pytest.mark.parametrize("text", ["wire:a+", "wire:+a", "wire:a++b"])
    def test_an_empty_symbol_is_refused(self, text):
        # the empty symbol's state would emit the silent output, not its symbol
        with pytest.raises(InputDomainError, match="wire symbols must be non-empty"):
            build(text)


class TestAktionsart:
    def test_achievement_is_a_bare_two_chain(self):
        m = aktionsart("achievement")
        assert len(m.states) == 2
        assert len(m.edges) == 1
        assert not any(src == dst for src, _, dst in m.edges)

    def test_state_is_a_single_looped_state(self):
        m = aktionsart("state")
        assert len(m.states) == 1
        assert m.edges == (("a", "e", "a"),)

    def test_semelfactive_has_no_transitions(self):
        m = aktionsart("semelfactive")
        assert len(m.states) == 1
        assert m.edges == ()

    def test_accomplishment_loops_first_state_only(self):
        m = aktionsart("accomplishment")
        loops = {src for src, _, dst in m.edges if src == dst}
        assert loops == {"a"}

    def test_activity_loops_both(self):
        m = aktionsart("activity")
        loops = {src for src, _, dst in m.edges if src == dst}
        assert loops == {"a", "b"}

    def test_the_last_loops_option_wins(self):
        m = build("wheel:3,loops=a,loops=c")
        assert m == build("wheel:3,loops=c")
        assert {src for src, _, dst in m.edges if src == dst} == {"c"}

    def test_unknown_class(self):
        with pytest.raises(InputDomainError):
            aktionsart("telicity")


class TestSchema:
    def test_exchange_is_a_three_chain_named_for_its_phases(self):
        m = schema("exchange")
        assert m.states == ("b", "mid", "a")
        assert m.initial == "b"
        assert len(m.edges) == 2

    def test_gravity_cycles_between_rest_and_falling(self):
        m = schema("gravity")
        assert m.states == ("rest", "falling")
        assert m.successors("falling", "e") == ("rest",)


class TestAnnotateOutputs:
    def test_prop3_style_wheel(self):
        m = wheel(10)
        labels = {}
        for i, q in enumerate(m.states):
            labels[q] = "1" if i < 5 else "2" if i < 8 else "3"
        labeled = annotate_outputs(m, labels)
        assert validate(labeled) == []
        counts = {}
        for q in labeled.states:
            counts[labeled.output_of(q)] = counts.get(labeled.output_of(q), 0) + 1
        assert counts == {"1": 5, "2": 3, "3": 2}

    def test_silencing_the_signal(self):
        m = wheel(4)
        silent = annotate_outputs(m, {m.states[-1]: ""})
        assert all(silent.output_of(q) == "" for q in silent.states)

    def test_duplicate_signals_are_allowed(self):
        m = wheel(4)
        labeled = annotate_outputs(m, {"a": "x", "b": "x"})
        assert [labeled.output_of(q) for q in labeled.states[:2]] == ["x", "x"]

    def test_unknown_state(self):
        with pytest.raises(InputDomainError):
            annotate_outputs(wheel(2), {"zz": "1"})

    def test_every_state_of_a_myriad_wheel_can_be_labelled(self):
        m = wheel(10_000)
        labelled = annotate_outputs(m, {q: ("", "1", "2")[i % 3] for i, q in enumerate(m.states)})
        assert [labelled.output_of(q) for q in m.states[:4]] == ["", "1", "2", ""]
        assert len(labelled.outputs) == 6_666

    def test_original_is_untouched(self):
        m = wheel(3)
        annotate_outputs(m, {"a": "9"})
        assert m.output_of("a") == ""


class TestSpecs:
    @pytest.mark.parametrize(
        "text, states, edges",
        [
            ("wheel:4", 4, 4),
            ("wheel:2,loops=a", 2, 3),
            ("chain:3", 3, 2),
            ("synapse:rab", 4, 9),
            ("wire:01", 3, 6),
            ("akt:activity", 2, 3),
            ("schema:exchange", 3, 2),
        ],
    )
    def test_spec_strings_build(self, text, states, edges):
        m = build(text)
        assert len(m.states) == states
        assert len(m.edges) == edges

    def test_loops_with_plus_separator(self):
        m = build("wheel:3,loops=a+b")
        loops = {src for src, _, dst in m.edges if src == dst}
        assert loops == {"a", "b"}

    def test_unknown_kind(self):
        with pytest.raises(InputDomainError):
            build("gizmo:3")

    def test_parameters_respect_constraints(self):
        with pytest.raises(InputDomainError):
            build("wheel:10001")

    @pytest.mark.parametrize(
        "spec, constraints, message",
        [
            ("wheel", Constraints(), "wheel spec needs a size, e.g. wheel:4"),
            ("chain: ,loops=a", Constraints(), "chain spec needs a size, e.g. chain:4"),
            ("wheel:x", Constraints(), "bad wheel size 'x'"),
            ("wheel:3,spin=2", Constraints(), "unknown wheel option 'spin'"),
            ("wire:abc", Constraints(max_alphabet=2), "wire alphabet 3 exceeds the symbol budget 2"),
            ("wire:abc", Constraints(max_states=3), "wire state count exceeds the state budget"),
        ],
        ids=["no-size", "blank-size", "bad-size", "unknown-option", "wire-alphabet", "wire-states"],
    )
    def test_a_bad_spec_names_its_fault(self, spec, constraints, message):
        with pytest.raises(InputDomainError) as info:
            build(spec, constraints)
        assert str(info.value) == message

    def test_bare_synapse_defaults_to_all_loops(self):
        assert build("synapse") == synapse()


def test_every_gallery_machine_passes_default_validation():
    for machine in gallery():
        assert validate(machine) == [], machine.name
