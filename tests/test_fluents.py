"""Instant containment and fluent truth across scales."""
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from cmoore.cluster import ScaleSystem
from cmoore.errors import InputDomainError, UnassignedWindowError
from cmoore.fluents import (
    FluentStore,
    TimePoint,
    Truth,
    contains,
    evaluate,
    evaluate_schema,
    load_store,
)
from cmoore.menagerie import schema


def store_with(values, base_scale=0, scales=None):
    """A store holding one explicit fluent "p" over the given window."""
    store = FluentStore(scales or ScaleSystem.modern(), base_scale)
    ranges = [(i, i + 1) for i, v in enumerate(values) if v]
    store.assign("p", (0, len(values)), ranges)
    return store


class TestContains:
    def test_decimal_windows(self):
        scales = ScaleSystem.modern()
        assert contains(TimePoint(1, 0), TimePoint(0, 7), scales)
        assert not contains(TimePoint(1, 0), TimePoint(0, 10), scales)

    def test_two_scales_down(self):
        scales = ScaleSystem.modern()
        assert contains(TimePoint(2, 3), TimePoint(0, 305), scales)
        assert not contains(TimePoint(2, 3), TimePoint(0, 400), scales)

    def test_precondition_on_scales(self):
        scales = ScaleSystem.modern()
        with pytest.raises(InputDomainError):
            contains(TimePoint(0, 0), TimePoint(0, 0), scales)
        with pytest.raises(InputDomainError):
            contains(TimePoint(0, 0), TimePoint(1, 0), scales)
        with pytest.raises(InputDomainError, match="^scale 19 outside the scale system$"):
            contains(TimePoint(19, 0), TimePoint(0, 0), scales)

    def test_negative_indices_partition_the_past(self):
        scales = ScaleSystem.modern()
        assert contains(TimePoint(1, -1), TimePoint(0, -3), scales)
        assert not contains(TimePoint(1, -1), TimePoint(0, 0), scales)

    def test_every_base_index_lies_in_exactly_one_window(self):
        scales = ScaleSystem.modern()
        for index in range(-25, 25):
            holders = [k for k in range(-4, 4) if contains(TimePoint(1, k), TimePoint(0, index), scales)]
            assert len(holders) == 1

    def test_time_point_parse(self):
        assert TimePoint.parse("2.-3") == TimePoint(2, -3)
        with pytest.raises(InputDomainError):
            TimePoint.parse("x.y")


class TestEvaluate:
    def test_alternating_window_is_a_transition_unit(self):
        store = store_with([i % 2 == 0 for i in range(96)], scales=naive_96())
        assert evaluate(store, "p", TimePoint(1, 0), "preponderant") is Truth.UNDEFINED

    def test_bare_majority_is_not_preponderance(self):
        values = [True] * 501 + [False] * 499
        store = store_with(values, scales=thousand_per_unit())
        assert evaluate(store, "p", TimePoint(1, 0), "preponderant") is Truth.UNDEFINED

    def test_all_true_window(self):
        store = store_with([True] * 96, scales=naive_96())
        at = TimePoint(1, 0)
        assert evaluate(store, "p", at, "forall") is Truth.TRUE
        assert evaluate(store, "p", at, "exists") is Truth.TRUE
        assert evaluate(store, "p", at, "preponderant") is Truth.TRUE

    def test_contiguous_supermajority_wins(self):
        values = [True] * 70 + [False] * 26
        store = store_with(values, scales=naive_96())
        assert evaluate(store, "p", TimePoint(1, 0), "preponderant") is Truth.TRUE
        flipped = store_with([not v for v in values], scales=naive_96())
        assert evaluate(flipped, "p", TimePoint(1, 0), "preponderant") is Truth.FALSE

    def test_split_supermajority_does_not_count(self):
        # 70 true units, but split into two runs of 35: no contiguous stretch
        values = [True] * 35 + [False] * 26 + [True] * 35
        store = store_with(values, scales=naive_96())
        assert evaluate(store, "p", TimePoint(1, 0), "preponderant") is Truth.UNDEFINED

    def test_base_scale_agreement(self):
        store = store_with([True, False, True])
        for index, expected in ((0, Truth.TRUE), (1, Truth.FALSE)):
            for mode in ("forall", "exists", "preponderant"):
                assert evaluate(store, "p", TimePoint(0, index), mode) is expected

    def test_theta_bounds(self):
        store = store_with([True] * 10)
        with pytest.raises(InputDomainError):
            evaluate(store, "p", TimePoint(1, 0), theta=Fraction(1, 2))
        with pytest.raises(InputDomainError):
            evaluate(store, "p", TimePoint(1, 0), theta=Fraction(3, 2))

    def test_unassigned_window(self):
        store = store_with([True] * 5)  # domain [0, 5) but a window needs 10
        with pytest.raises(UnassignedWindowError):
            evaluate(store, "p", TimePoint(1, 0))

    def test_unknown_fluent_and_mode(self):
        store = store_with([True] * 10)
        with pytest.raises(InputDomainError):
            evaluate(store, "q", TimePoint(0, 0))
        with pytest.raises(InputDomainError):
            evaluate(store, "p", TimePoint(0, 0), mode="mostly")

    @pytest.mark.parametrize("scales", [ScaleSystem.modern(), ScaleSystem.naive()],
                             ids=["modern", "naive"])
    def test_every_scale_has_its_window_width(self, scales):
        for base in range(scales.min_scale, scales.max_scale + 1):
            store = FluentStore(scales, base)
            store.cyclic_fluent("p", 2, (0, 1))
            for scale in range(base, scales.max_scale + 1):
                width = scales.units(scale, base)
                # one true unit in two: a window of one unit is all true or all false
                want = Truth.TRUE if width == 1 else Truth.FALSE
                assert evaluate(store, "p", TimePoint(scale, 0), "forall") is want
                assert evaluate(store, "p", TimePoint(scale, 0), "exists") is Truth.TRUE

    def test_base_scale_outside_the_scale_system(self):
        with pytest.raises(InputDomainError, match="^base scale 19 outside the scale system$"):
            FluentStore(ScaleSystem.modern(), base_scale=19)

    def test_below_base_scale_rejected(self):
        store = FluentStore(ScaleSystem.modern(), base_scale=0)
        store.assign("p", (0, 10), [(0, 10)])
        with pytest.raises(InputDomainError):
            evaluate(store, "p", TimePoint(-1, 0))

    @given(
        st.lists(st.booleans(), min_size=10, max_size=10),
        st.fractions(min_value=Fraction(1, 2), max_value=1).filter(lambda f: f > Fraction(1, 2)),
    )
    def test_monotonicity_forall_preponderant_exists(self, values, theta):
        store = store_with(values)
        at = TimePoint(1, 0)
        forall = evaluate(store, "p", at, "forall", theta)
        prep = evaluate(store, "p", at, "preponderant", theta)
        exists = evaluate(store, "p", at, "exists", theta)
        if forall is Truth.TRUE:
            assert prep is Truth.TRUE
        if prep is Truth.TRUE:
            assert exists is Truth.TRUE

    def test_complementary_fluents_never_both_preponderant(self):
        rng = Random(17)
        scales = ScaleSystem.modern()
        for trial in range(300):
            values = [rng.random() < 0.5 for _ in range(10)]
            store = FluentStore(scales, 0)
            store.assign("p", (0, 10), [(i, i + 1) for i, v in enumerate(values) if v])
            store.assign("not_p", (0, 10), [(i, i + 1) for i, v in enumerate(values) if not v])
            at = TimePoint(1, 0)
            p_true = evaluate(store, "p", at, "preponderant") is Truth.TRUE
            q_true = evaluate(store, "not_p", at, "preponderant") is Truth.TRUE
            assert not (p_true and q_true)


def naive_96():
    """One coarse scale of 96 units over the base, day-over-quarter-hour
    style."""
    return ScaleSystem(min_scale=0, max_scale=1, factors=((1, 96),), name="96")


def thousand_per_unit():
    return ScaleSystem(min_scale=0, max_scale=1, factors=((1, 1000),), name="1000")


class TestCyclicFluents:
    def test_even_odd(self):
        store = FluentStore(ScaleSystem.modern(), 0)
        store.cyclic_fluent("even", 2, (0, 1))
        assert store.value_at("even", 0) is True
        assert store.value_at("even", 1) is False
        assert store.value_at("even", -2) is True

    def test_half_duty_cycle_is_undefined_one_scale_up(self):
        store = FluentStore(naive_96(), 0)
        store.cyclic_fluent("day", 96, (24, 72))
        assert evaluate(store, "day", TimePoint(1, 0), "preponderant") is Truth.UNDEFINED

    def test_three_quarter_duty_cycle_is_true_one_scale_up(self):
        store = FluentStore(naive_96(), 0)
        store.cyclic_fluent("day", 96, (12, 84))
        assert evaluate(store, "day", TimePoint(1, 0), "preponderant") is Truth.TRUE

    def test_day_night_complements(self):
        store = FluentStore(naive_96(), 0)
        store.cyclic_fluent("day", 96, (24, 72))
        store.cyclic_fluent("night", 96, (72, 120))  # wraps around midnight
        for index in range(-96, 192):
            assert store.value_at("day", index) != store.value_at("night", index)

    def test_redefinition_rejected(self):
        store = FluentStore(ScaleSystem.modern(), 0)
        store.cyclic_fluent("day", 96, (0, 48))
        with pytest.raises(InputDomainError):
            store.cyclic_fluent("day", 2, (0, 1))
        with pytest.raises(InputDomainError):
            store.assign("day", (0, 10), [])

    def test_phase_validation(self):
        store = FluentStore(ScaleSystem.modern(), 0)
        with pytest.raises(InputDomainError):
            store.cyclic_fluent("p", 1, (0, 1))
        with pytest.raises(InputDomainError):
            store.cyclic_fluent("p", 4, (0, 4))
        with pytest.raises(InputDomainError):
            store.cyclic_fluent("p", 4, (2, 2))


class TestSchemaReports:
    def test_exchange_before_state(self):
        report = evaluate_schema("exchange")
        assert report["b"]["has(seller,goods)"] is Truth.TRUE
        assert report["b"]["has(buyer,money)"] is Truth.TRUE
        assert report["b"]["has(buyer,goods)"] is Truth.FALSE

    def test_exchange_is_underspecified_mid_transaction(self):
        report = evaluate_schema("exchange")
        assert set(report["mid"].values()) == {Truth.UNDEFINED}

    def test_exchange_after_state_swaps_possession(self):
        report = evaluate_schema("exchange")
        assert report["a"]["has(buyer,goods)"] is Truth.TRUE
        assert report["a"]["has(seller,goods)"] is Truth.FALSE

    def test_gravity(self):
        report = evaluate_schema("gravity")
        assert report["rest"]["supported"] is Truth.TRUE
        assert report["falling"]["falling"] is Truth.TRUE

    def test_states_match_the_schema_machines(self):
        assert set(evaluate_schema("exchange")) == set(schema("exchange").states)
        assert set(evaluate_schema("gravity")) == set(schema("gravity").states)

    def test_unknown_schema(self):
        with pytest.raises(InputDomainError):
            evaluate_schema("barter")


class TestStoreDocuments:
    def test_load_store_round_trip_behavior(self):
        doc = {
            "base_scale": 0,
            "fluents": {"rain": {"domain": [0, 100], "true": [[0, 30], [60, 100]]}},
            "cyclic": {"tide": {"period": 12, "phase": [0, 6]}},
        }
        store = load_store(doc, scales=ScaleSystem.modern())
        assert store.value_at("rain", 10) is True
        assert store.value_at("rain", 45) is False
        assert store.value_at("tide", 13) is True
        assert store.names() == ("rain", "tide")

    def test_text_that_is_not_json_is_a_malformed_store(self):
        assert load_store('{"fluents": {}}').names() == ()
        with pytest.raises(InputDomainError, match="^malformed store document: Expecting"):
            load_store("{bad")

    def test_ranges_must_stay_in_domain(self):
        store = FluentStore(ScaleSystem.modern(), 0)
        with pytest.raises(InputDomainError):
            store.assign("p", (0, 10), [(5, 15)])

    def test_bad_bounds_rejected(self):
        store = FluentStore(ScaleSystem.modern(), 0)
        for domain, ranges in (
            ((0, 10), [(0.5, 3)]),
            ((0, 10), [(True, 3)]),
            ((0.0, 10), []),
            ((0, 10), [(1, 2, 3)]),
            ((0, 10), [5]),
            ((5, 5), []),
        ):
            with pytest.raises(InputDomainError):
                store.assign("p", domain, ranges)
        with pytest.raises(InputDomainError):
            store.cyclic_fluent("c", 4.0, (0, 1))
        with pytest.raises(InputDomainError):
            store.cyclic_fluent("c", 4, (0, 1.5))

    def test_empty_ranges_are_ignored(self):
        store = FluentStore(ScaleSystem.modern(), 0)
        store.assign("p", (0, 10), [(7, 2), (4, 4), (0, 3), (3, 5)])
        assert [store.value_at("p", i) for i in range(10)] == [True] * 5 + [False] * 5
        assert store.longest_runs("p", 0, 10) == (5, 5)


class TestBudgets:
    """No query or installation does work per unit of its window or domain."""

    def test_scale_zero_cyclic_query_over_base_minus_18(self):
        store = FluentStore(base_scale=-18)
        store.cyclic_fluent("day", 997, (300, 800))
        store.cyclic_fluent("era", 3 * 10**18, (0, 2 * 10**18))
        began = time.perf_counter()
        answers = [
            evaluate(store, name, TimePoint(0, index), mode)
            for name, index in (("day", -4), ("era", 0), ("era", 2))
            for mode in ("forall", "exists", "preponderant")
        ]
        assert time.perf_counter() - began < 0.1
        t, f, u = Truth.TRUE, Truth.FALSE, Truth.UNDEFINED
        # 500 true and 497 false units a period; then a window inside the
        # true third of a 3*10**18 period, and one inside its false third
        assert answers == [f, t, u, t, t, t, f, f, f]

    def test_billion_unit_domain_in_little_memory(self):
        # one true run of 7*10**8 units, then 999 short ones 3*10**5 apart
        starts = [7 * 10**8 + 1 + k * 3 * 10**5 for k in range(999)]
        doc = {
            "base_scale": 0,
            "fluents": {
                "p": {"domain": [0, 10**9], "true": [[0, 7 * 10**8]] + [[lo, lo + 1000] for lo in starts]}
            },
        }
        tracemalloc.start()
        try:
            store = load_store(doc)
            answers = [
                evaluate(store, "p", TimePoint(9, 0), mode)
                for mode in ("forall", "exists", "preponderant")
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answers == [Truth.FALSE, Truth.TRUE, Truth.TRUE]
        assert peak < 10**6
