"""Tense mapping, spreading activation, and the island parser."""
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmoore.errors import BudgetError, ContradictionError, InputDomainError
from cmoore.fluents import TimePoint
from cmoore.lingua import (
    PARSE_ITEM_LIMIT,
    ActivationNetwork,
    LexEntry,
    Lexicon,
    ParseItem,
    Pattern,
    PatternSet,
    Phase,
    TenseMap,
    demo_lexicon,
    disambiguate,
    grief_demo_network,
    inject,
    load_network,
    parse,
    step_network,
    tense_locate,
)

SENTENCE = "Eleanor broke the record"


class TestTense:
    def test_tamil_past_scales(self):
        tenses = TenseMap.tamil_past()
        assert tense_locate("immediate", tenses) == TimePoint(0, -1)
        assert tense_locate("recent", tenses) == TimePoint(1, -1)
        assert tense_locate("remote", tenses, k=3) == TimePoint(2, -3)
        assert tense_locate("historical", tenses) == TimePoint(4, -1)

    def test_future_scales(self):
        tenses = TenseMap.scalar_future()
        assert tense_locate("immediate", tenses) == TimePoint(0, 1)
        assert tense_locate("hypothetical", tenses) == TimePoint(5, 1)

    def test_unknown_label(self):
        with pytest.raises(InputDomainError):
            tense_locate("mythological", TenseMap.tamil_past())

    def test_k_must_be_positive(self):
        with pytest.raises(InputDomainError):
            tense_locate("recent", TenseMap.tamil_past(), k=0)


class TestInject:
    def test_rest_to_aroused(self):
        net = ActivationNetwork.build(["grief"])
        net = inject(net, "grief")
        assert net.phase_of("grief") is Phase.AROUSED

    def test_aroused_to_transmit(self):
        net = inject(inject(ActivationNetwork.build(["grief"]), "grief"), "grief")
        assert net.phase_of("grief") is Phase.TRANSMIT

    def test_blocked_ignores_impulses(self):
        net = ActivationNetwork(
            phases=(("n", Phase.BLOCKED),), edges=(), static_links=()
        )
        assert inject(net, "n").phase_of("n") is Phase.BLOCKED

    def test_unknown_node(self):
        with pytest.raises(InputDomainError):
            inject(ActivationNetwork.build(["a"]), "b")


class TestStep:
    def test_firing_then_refractory_then_rest(self):
        net = ActivationNetwork.build(["src", "dst"], [("src", "dst")])
        net = inject(inject(net, "src"), "src")
        net, fired = step_network(net)
        assert fired == {"src"}
        assert net.phase_of("src") is Phase.BLOCKED
        assert net.phase_of("dst") is Phase.AROUSED  # one impulse only
        net, fired = step_network(net)
        assert fired == frozenset()
        assert net.phase_of("src") is Phase.REST

    def test_single_source_never_fires_a_resting_target_in_one_step(self):
        net = ActivationNetwork.build(["src", "dst"], [("src", "dst")])
        net = inject(inject(net, "src"), "src")
        for _ in range(6):
            net, fired = step_network(net)
            assert "dst" not in fired

    def test_two_simultaneous_impulses_reach_transmit(self):
        net = ActivationNetwork.build(["s1", "s2", "dst"], [("s1", "dst"), ("s2", "dst")])
        for node in ("s1", "s1", "s2", "s2"):
            net = inject(net, node)
        net, fired = step_network(net)
        assert fired == {"s1", "s2"}
        assert net.phase_of("dst") is Phase.TRANSMIT

    def test_empty_network_is_a_fixed_point(self):
        net = ActivationNetwork.build([])
        net2, fired = step_network(net)
        assert net2 == net and fired == frozenset()

    def test_no_node_fires_twice_without_passing_blocked(self):
        net = ActivationNetwork.build(["a", "b"], [("a", "b"), ("b", "a")])
        for node in ("a", "a", "b", "b"):
            net = inject(net, node)
        last_fired = {}
        phases = {}
        for step_index in range(12):
            before = {n: net.phase_of(n) for n in net.nodes}
            net, fired = step_network(net)
            for node in fired:
                if node in last_fired:
                    assert phases.get(node) == Phase.BLOCKED, "refire without refractory pass"
                last_fired[node] = step_index
                phases[node] = None
            for node in net.nodes:
                if net.phase_of(node) is Phase.BLOCKED:
                    phases[node] = Phase.BLOCKED


@st.composite
def activation_runs(draw):
    """A random network (links included) and a random run of injections and
    steps over it; ``None`` marks a step."""
    names = [f"n{k}" for k in range(draw(st.integers(0, 8)))]
    if not names:
        return ActivationNetwork.build([]), [None] * draw(st.integers(0, 3))
    node = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(node, node), max_size=20))
    links = draw(st.lists(st.tuples(node, st.just("knows"), node), max_size=3))
    net = ActivationNetwork.build(names, edges, links)
    return net, draw(st.lists(st.none() | node, max_size=30))


class TestTrustedRebuild:
    """``inject`` and ``step_network`` build their result without the
    public constructor's checks; it must be the network that constructor
    builds from the same phases."""

    @settings(max_examples=150, deadline=None)
    @given(activation_runs())
    def test_each_result_equals_the_publicly_built_network(self, run):
        net, actions = run
        start = net
        for action in actions:
            net = step_network(net)[0] if action is None else inject(net, action)
            public = ActivationNetwork(net.phases, net.edges, net.static_links)
            assert type(net) is ActivationNetwork
            assert net == public and hash(net) == hash(public)
            assert net.nodes == start.nodes
            assert (net.edges, net.static_links) == (start.edges, start.static_links)

    def test_public_constructor_rejects_duplicate_names(self):
        phases = (("a", Phase.REST), ("a", Phase.AROUSED))
        with pytest.raises(ValueError, match=r"^duplicate node names$"):
            ActivationNetwork(phases, ())

    def test_public_constructor_rejects_unknown_endpoints(self):
        phases = (("a", Phase.REST),)
        with pytest.raises(ValueError, match=r"^edge \('a', 'z'\) touches an unknown node$"):
            ActivationNetwork(phases, (("a", "z"),))
        with pytest.raises(ValueError, match=r"^edge \('z', 'a'\) touches an unknown node$"):
            ActivationNetwork.build(["a"], [("z", "a")])

    def test_inject_into_an_unknown_node_names_it(self):
        with pytest.raises(InputDomainError, match=r"^unknown node 'b'$"):
            inject(ActivationNetwork.build(["a"]), "b")


class TestGriefLaw:
    def perceive_death(self, net):
        for node in ("death(y)", "death(y)", "y", "y"):
            net = inject(net, node)
        return net

    def test_double_activation_fires_grief(self):
        net = self.perceive_death(grief_demo_network())
        net, first = step_network(net)
        assert first == {"death(y)", "y"}
        net, second = step_network(net)
        assert second == {"grief(x)"}

    def test_electra_guard_without_knowledge(self):
        net = self.perceive_death(grief_demo_network(parent_knows=False))
        fired_ever = set()
        for _ in range(8):
            net, fired = step_network(net)
            fired_ever |= fired
        assert "grief(x)" not in fired_ever
        assert net.phase_of("grief(x)") is Phase.AROUSED

    def test_static_links_record_the_kinship_fact(self):
        net = grief_demo_network()
        assert ("x", "parentOf", "y") in net.static_links


class TestParser:
    def test_the_worked_sentence(self):
        result = parse(SENTENCE)
        assert len(result.full) == 1
        tree = result.full[0]
        assert tree.category == "S"
        record = [leaf for leaf in tree.leaves() if leaf.lemma == "record"]
        assert len(record) == 1
        assert record[0].senses == ("record1", "record2", "record3")

    def test_morphology_splits_broke(self):
        tree = parse(SENTENCE).full[0]
        verb = [leaf for leaf in tree.leaves() if leaf.category == "Vt"]
        assert verb[0].lemma == "break"
        assert verb[0].features == ("PAST",)
        assert "break.PAST" in tree.bracket()

    def test_noun_phrase_island_without_a_sentence(self):
        result = parse("the record")
        assert result.full and result.full[0].category == "NP"
        assert not any(item.category == "S" for item in result.chart)

    def test_unsupported_readings_die_out(self):
        result = parse(SENTENCE)
        surviving = {(item.category, item.lemma) for item in result.items}
        assert ("Vt", "record") not in surviving
        assert ("A", "record") not in surviving
        assert ("N", "break") not in surviving  # the 'intermission' reading
        chart = {(item.category, item.lemma) for item in result.chart}
        assert ("Vt", "record") in chart  # it was considered, then died

    def test_island_result_for_unparseable_order(self):
        result = parse("record the")
        assert result.full == ()
        categories = {item.category for item in result.islands()}
        assert "Art" in categories and "N" in categories

    def test_unknown_word(self):
        with pytest.raises(InputDomainError):
            parse("Eleanor broke the xylophone")

    @pytest.mark.parametrize("sentence", ["", "   ", ()], ids=["empty", "blank", "no-words"])
    def test_nothing_to_parse(self, sentence):
        with pytest.raises(InputDomainError, match="^nothing to parse$"):
            parse(sentence)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LexEntry("N", ()), "a lexical entry needs at least one sense"),
            (lambda: Pattern((), "X"), "pattern chains consume one to three signals"),
            (lambda: Pattern(("A",) * 4, "X"), "pattern chains consume one to three signals"),
            (lambda: ParseItem(2, 2, "N", ("n",)), "an item needs a non-empty span"),
            (lambda: ParseItem(0, 3, "NP", ("n",), (ParseItem(0, 1, "Art", ("the",)),
                                                    ParseItem(2, 3, "N", ("n",)))),
             "children must tile the span contiguously"),
            (lambda: ParseItem(0, 3, "NP", ("n",), (ParseItem(0, 1, "Art", ("the",)),
                                                    ParseItem(1, 2, "N", ("n",)))),
             "children must cover the span exactly"),
        ],
        ids=["no-senses", "empty-chain", "long-chain", "empty-span", "gap", "short"],
    )
    def test_a_refused_value_names_its_fault(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_span_tiling_invariant(self):
        for item in parse(SENTENCE).chart:
            if item.children:
                assert item.children[0].start == item.start
                assert item.children[-1].end == item.end
                for left, right in zip(item.children, item.children[1:]):
                    assert left.end == right.start

    def test_adding_a_sense_never_removes_items(self):
        base = parse(SENTENCE)
        richer_lexicon = demo_lexicon()
        words = {word: list(entries) for word, entries in richer_lexicon.words}
        words["record"] = [
            ("N", ("record1", "record2", "record3", "record4")),
            ("Vt", ("record_v",)),
            ("A", ("record_a",)),
        ]
        richer = Lexicon.make(
            {w: [(e.category, e.senses) if hasattr(e, "category") else e for e in es] for w, es in words.items()},
            morphology={"broke": ("break", ("PAST",))},
        )
        extended = parse(SENTENCE, richer)
        base_shapes = {(i.start, i.end, i.category) for i in base.chart}
        extended_shapes = {(i.start, i.end, i.category) for i in extended.chart}
        assert base_shapes <= extended_shapes

    def test_highly_ambiguous_grammar_stops_at_the_item_limit(self):
        # every split of the sentence is an A, in two sense sets: the chart
        # grows about tenfold per word
        lexicon = Lexicon.make({"x": [("A", ("s0",)), ("A", ("s1",))]})
        patterns = PatternSet.make([(("A", "A"), "A"), (("A", "A"), "A", 0), (("A", "A", "A"), "A")])
        assert len(parse("x x x x x", lexicon, patterns).chart) == 4822
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"more than {PARSE_ITEM_LIMIT} items"):
            parse("x x x x x x x", lexicon, patterns)
        assert time.perf_counter() - start < 5

    def test_lexicon_order_does_not_matter(self):
        lex = demo_lexicon()
        reversed_words = Lexicon(tuple(reversed(lex.words)), lex.morphology)
        assert parse(SENTENCE, reversed_words).items == parse(SENTENCE).items


class TestPatternSet:
    def test_unary_self_loop_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unary patterns form a cycle: N -> N"):
            PatternSet.make([(("N",), "N"), (("Art", "N"), "NP")])

    def test_longer_unary_cycle_is_named(self):
        with pytest.raises(ValueError, match="unary patterns form a cycle: M -> N -> M"):
            PatternSet.make([(("N",), "M"), (("M",), "N")])

    def test_acyclic_unary_patterns_parse(self):
        patterns = PatternSet.make([(("N",), "M"), (("M",), "K"), (("Art", "K"), "NP")])
        result = parse("the record", demo_lexicon(), patterns)
        assert [item.bracket() for item in result.full] == [
            "(NP (Art the) (K (M (N record{record1|record2|record3}))))"
        ]

    def test_bool_head_is_rejected(self):
        with pytest.raises(ValueError, match="pattern head must index the sequence"):
            PatternSet.make([(("Art", "N"), "NP", True)])

    def test_bare_string_sequence_is_rejected(self):
        # "AN" would otherwise read as the chain A N
        with pytest.raises(TypeError, match="a pattern sequence must be a list of strings, got 'AN'"):
            PatternSet.make([("AN", "NP")])


class TestLexicon:
    def test_bare_string_senses_are_rejected(self):
        # "tea" would otherwise read as the senses t, e, a
        with pytest.raises(TypeError, match="senses must be a list of strings, got 'tea'"):
            Lexicon.make({"t": [("A", "tea")]})

    def test_bare_string_features_are_rejected(self):
        with pytest.raises(TypeError, match="features must be a list of strings, got 'PL'"):
            Lexicon.make({"dog": [("N", ("dog",))]}, morphology={"dogs": ("dog", "PL")})


class TestDisambiguate:
    def test_athlete_context(self):
        tree = parse(SENTENCE).full[0]
        filtered = disambiguate(tree, {"Eleanor": ["athlete"]})
        record = [leaf for leaf in filtered.leaves() if leaf.lemma == "record"][0]
        assert record.senses == ("record3",)

    def test_empty_context_keeps_all_readings(self):
        tree = parse(SENTENCE).full[0]
        assert disambiguate(tree, {}) == tree

    def test_conflicting_properties_union(self):
        tree = parse(SENTENCE).full[0]
        filtered = disambiguate(tree, {"Eleanor": ["athlete", "hacker"]})
        record = [leaf for leaf in filtered.leaves() if leaf.lemma == "record"][0]
        assert record.senses == ("record2", "record3")

    def test_contradiction(self):
        tree = parse(SENTENCE).full[0]
        rules = {
            "athlete": frozenset({"record9"}),  # excludes every actual sense
            "hacker": frozenset({"record1", "record2", "record3"}),
        }
        with pytest.raises(ContradictionError):
            disambiguate(tree, {"Eleanor": ["athlete"]}, rules)

    def test_irrelevant_subject_facts_leave_the_tree_alone(self):
        tree = parse(SENTENCE).full[0]
        assert disambiguate(tree, {"Eleanor": ["tall"]}) == tree


class TestGrammarFiles:
    def test_load_grammar_round_trips_the_demo(self):
        import json

        from cmoore.lingua import load_grammar

        doc = {
            "words": {
                "Eleanor": [["NP", ["Eleanor"]]],
                "break": [["Vt", ["break_v"]], ["N", ["break_n"]]],
                "the": [["Art", ["the"]]],
                "record": [
                    ["N", ["record1", "record2", "record3"]],
                    ["Vt", ["record_v"]],
                    ["A", ["record_a"]],
                ],
            },
            "morphology": {"broke": ["break", ["PAST"]]},
            "patterns": [[["Art", "N"], "NP"], [["Vt", "NP"], "VP", 0], [["NP", "VP"], "S"]],
        }
        lexicon, patterns = load_grammar(json.dumps(doc))
        result = parse(SENTENCE, lexicon, patterns)
        assert result.full == parse(SENTENCE).full

    def test_malformed_grammar(self):
        from cmoore.lingua import load_grammar

        with pytest.raises(InputDomainError):
            load_grammar('{"patterns": []}')

    def test_text_that_is_not_json_is_a_malformed_grammar(self):
        from cmoore.lingua import load_grammar

        with pytest.raises(InputDomainError, match="^malformed grammar document: Expecting"):
            load_grammar("{not json")


class TestNetworkFiles:
    def test_load_network_round_trips_the_demo(self):
        demo = grief_demo_network()
        doc = {
            "nodes": list(demo.nodes),
            "edges": [list(edge) for edge in demo.edges],
            "static_links": [list(link) for link in demo.static_links],
        }
        assert load_network(doc) == demo

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"nodes": "ab"},
            {"nodes": ["a", 1]},
            {"nodes": ["a", "b"], "edges": ["ab"]},
            {"nodes": ["a", "b"], "edges": ""},
            {"nodes": ["a", "b"], "edges": [["a", "b", "a"]]},
            {"nodes": ["a"], "edges": [["a", "z"]]},
            {"nodes": ["a", "b"], "static_links": [["a", "b"]]},
        ],
        ids=["list", "no-nodes", "nodes-string", "node-number", "edge-string",
             "edges-string", "edge-triple", "unknown-node", "link-pair"],
    )
    def test_wrong_shape_document_is_malformed(self, doc):
        with pytest.raises(InputDomainError, match="^malformed network document: "):
            load_network(doc)
