"""Nested-machine semantics: ticking, cycle lengths, classification,
bisimulation."""
import math
import time
from random import Random

import pytest

import cluster_reference
from cmoore import cluster
from cmoore.cluster import (
    SIMULATE_WORK_LIMIT,
    ClusterNode,
    ClusterState,
    CycleLength,
    digit_count,
    ScaleSystem,
    TemporalClass,
    bisimilar,
    canonical_machine,
    classify,
    cycle_length,
    initial_state,
    max_prime_power_sizes,
    node_from_doc,
    node_from_json,
    node_to_doc,
    node_to_json,
    product,
    simulate,
    tick,
    unfold,
    validate_cluster,
    wheel_cluster_cycle,
)
from cmoore.errors import BudgetError, InputDomainError, UnsupportedStructureError
from cmoore.machine import Automaton, to_doc
from cmoore.menagerie import chain, state_names, synapse, wheel
from test_kernels_differential import shuffled_copy


def wheels_within_wheels(inner=(3, 5), policy="union"):
    outer = wheel(len(inner))
    nodes = tuple(
        (outer.states[i], ClusterNode.leaf(wheel(k))) for i, k in enumerate(inner)
    )
    return ClusterNode(outer, scale=1, inner=nodes, tick_policy=policy)


def first_return_oracle(outer_size, inner_sizes):
    """Oracle: modular unfolding of positions, independent of the tick
    machinery."""
    positions = [0] * len(inner_sizes)
    outer = 0
    t = 0
    while True:
        t += 1
        fired = False
        for i, size in enumerate(inner_sizes):
            positions[i] = (positions[i] + 1) % size
            if positions[i] == size - 1:
                fired = True
        if fired:
            outer = (outer + 1) % outer_size
        if outer == 0 and not any(positions):
            return t


def emitting_wheel(size, emitting):
    """A wheel that emits on the named states instead of its last one."""
    base = wheel(size)
    return Automaton.make(
        f"wheel-{size}-emits-{''.join(emitting) or 'nothing'}",
        base.states,
        base.inputs,
        base.initial,
        {q: "1" for q in emitting},
        base.edges,
    )


def union_over(outer, *leaves):
    """``outer`` driving one leaf per state, from its first state on."""
    inner = tuple((q, ClusterNode.leaf(m)) for q, m in zip(outer.states, leaves))
    return ClusterNode(outer, scale=1, inner=inner, tick_policy="union")


# Two-level clusters whose inner wheels do not emit once per turn on the
# state before their initial one, with their first return by stepping.
OTHER_EMITTING_SETS = {
    "silent inner wheel": (union_over(wheel(4), emitting_wheel(4, []), wheel(6)), 24),
    "emits on its initial state": (union_over(wheel(3), wheel(2), emitting_wheel(4, ["a"])), 4),
    "emits on two states": (union_over(wheel(2), emitting_wheel(3, ["a", "c"])), 3),
    "silent size-1 wheel": (union_over(wheel(3), emitting_wheel(1, []), wheel(3)), 9),
    "no child ever emits": (
        union_over(wheel(3), emitting_wheel(4, []), emitting_wheel(6, [])),
        12,
    ),
}


class TestScaleSystem:
    def test_modern_windows_are_decimal(self):
        scales = ScaleSystem.modern()
        assert scales.branching(1) == 10
        assert scales.units(2, 0) == 100
        assert scales.units(0, 0) == 1

    def test_naive_preset(self):
        scales = ScaleSystem.naive()
        assert (scales.min_scale, scales.max_scale) == (-1, 5)
        assert scales.branching(0) == 100
        assert scales.branching(2) == 96
        assert scales.label(2) == "day"
        # full gamut: instants per aeon, a rough-order-of-magnitude check
        assert 1e12 < scales.units(5, -1) < 1e14

    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            ScaleSystem(min_scale=3, max_scale=3)
        with pytest.raises(InputDomainError):
            ScaleSystem.modern().branching(19)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: ScaleSystem(factors=((-18, 10),)), ValueError,
             "branching factor at scale -18 is out of bounds"),
            (lambda: ScaleSystem(factors=((1, 1),)), ValueError,
             "branching factor 1 must lie in [2, 10000]"),
            (lambda: ScaleSystem(default_factor=10_001), ValueError,
             "default branching factor must lie in [2, 10000]"),
            (lambda: ScaleSystem.modern().units(0, 1), InputDomainError,
             "inner scale must not exceed outer scale"),
        ],
        ids=["factor-scale", "factor", "default-factor", "units-upside-down"],
    )
    def test_a_refused_scale_system_names_its_fault(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


class TestClusterNode:
    def test_inner_scale_must_be_strictly_faster(self):
        with pytest.raises(ValueError):
            ClusterNode(
                wheel(2),
                scale=1,
                inner=(("a", ClusterNode(wheel(3), scale=1, tick_policy="external")),),
            )

    def test_union_policy_needs_an_inner_node(self):
        with pytest.raises(ValueError):
            ClusterNode(wheel(2), scale=1, tick_policy="union")

    def test_a_state_holds_at_most_one_inner_node(self):
        twice = (("a", ClusterNode.leaf(wheel(3))), ("a", ClusterNode.leaf(wheel(5))))
        with pytest.raises(ValueError, match="^at most one inner node per state$"):
            ClusterNode(wheel(2), scale=1, inner=twice)

    def test_validate_wheels_within_wheels_is_clean(self):
        assert validate_cluster(wheels_within_wheels()) == []

    def test_validate_flags_scale_bounds(self):
        node = ClusterNode(
            wheel(2),
            scale=-18,
            inner=(("a", ClusterNode.leaf(wheel(3), scale=-19)),),
        )
        rules = {v.rule for v in validate_cluster(node)}
        assert "scale-bounds" in rules

    def test_validate_reports_layer_budgets(self):
        node = ClusterNode.leaf(wheel(30))
        from cmoore.machine import Constraints

        report = validate_cluster(node, constraints=Constraints(max_states=10))
        assert [v.rule for v in report] == ["ss"]


class TestTick:
    def test_union_keeps_outer_states_balanced(self):
        report = simulate(wheels_within_wheels(), 100_000)
        occupancy = report.occupancy()
        assert 0.45 <= occupancy["a"] <= 0.55
        assert 0.45 <= occupancy["b"] <= 0.55
        assert not report.halted

    def test_union_balance_even_for_non_coprime_wheels(self):
        report = simulate(wheels_within_wheels(inner=(4, 6)), 90_000)
        occupancy = report.occupancy()
        assert 0.45 <= occupancy["a"] <= 0.55

    def test_ticks_over_the_work_limit_are_refused_before_stepping(self):
        node = wheels_within_wheels()  # three nodes
        simulate(node, SIMULATE_WORK_LIMIT // 3 // 1000)
        with pytest.raises(BudgetError, match=f"work limit {SIMULATE_WORK_LIMIT}"):
            simulate(node, SIMULATE_WORK_LIMIT // 3 + 1)

    def test_current_state_is_charged_its_occupied_path_only(self):
        # a wheel:20 with a wheel:3 in every state steps 2 nodes a tick, not 21
        node = wheels_within_wheels(inner=(3,) * 20, policy="current-state")
        report = simulate(node, 10**6)
        assert report.ticks_run == 10**6 and not report.halted
        # Each inner wheel first emits after 2 ticks, then every 3 (it keeps
        # its state while the outer one is elsewhere): 20 advances in the
        # first 40 ticks, 333,320 after them.  The outer wheel emits on its
        # 19th advance and every 20th after it.
        assert report.emissions == (20 + 333_320 - 19) // 20 + 1

    @pytest.mark.parametrize("ticks", [2.5, True])
    def test_ticks_must_be_an_integer(self, ticks):
        with pytest.raises(InputDomainError, match=f"ticks must be an integer, got {ticks!r}"):
            simulate(wheels_within_wheels(), ticks)

    def test_ticks_must_not_be_negative(self):
        with pytest.raises(InputDomainError, match="^ticks must be >= 0, got -1$"):
            simulate(wheels_within_wheels(), -1)

    def test_no_ticks_give_zero_occupancy(self):
        report = simulate(wheels_within_wheels(), 0)
        assert report.ticks_run == 0
        assert report.occupancy() == {"a": 0.0, "b": 0.0}

    def test_gap_tables_are_built_for_the_leaves_simulate_runs_only(self):
        node = wheels_within_wheels(inner=(3, 5), policy="current-state")
        cycle_length(wheels_within_wheels())
        tick(initial_state(node), node)
        unfold(node)
        assert node._compiled.gaps == [None] * 3
        simulate(node, 1)  # the outer wheel stays in "a", so only its leaf runs
        assert [gaps is None for gaps in node._compiled.gaps] == [True, False, True]

    def test_an_unknown_state_in_a_configuration_is_named(self):
        node = wheels_within_wheels()
        with pytest.raises(InputDomainError, match="^wheel-2: unknown state 'zz'$"):
            tick(ClusterState("zz", 0, initial_state(node).children), node)

    def test_largest_admitted_run_of_a_union_wheel_tree_is_exact(self):
        # three levels, all union: every tick steps all 5 nodes
        middle = ClusterNode(
            wheel(3), 1, (("a", ClusterNode.leaf(wheel(4))), ("c", ClusterNode.leaf(wheel(7)))), "union"
        )
        node = ClusterNode(
            wheel(5), 2, (("b", middle), ("d", ClusterNode.leaf(wheel(9)))), "union"
        )
        ticks = SIMULATE_WORK_LIMIT // 5
        with pytest.raises(BudgetError, match=f"work limit {SIMULATE_WORK_LIMIT}"):
            simulate(node, ticks + 1)
        period = cycle_length(node).base_ticks
        laps, rest = divmod(ticks, period)
        assert laps > 1000 and rest  # both a lap jump and a remainder count
        started = time.perf_counter()
        report = simulate(node, ticks)
        assert time.perf_counter() - started < 1
        # the start of a union wheel tree lies on its cycle, so the run is
        # whole laps from the start, then the first ``rest`` ticks again
        lap = cluster_reference.simulate(node, period)
        tail = cluster_reference.simulate(node, rest)
        assert report.ticks_run == ticks and not report.halted
        assert report.emissions == laps * lap.emissions + tail.emissions
        assert report.state_counts == tuple(
            (state, laps * n + m) for (state, n), (_, m) in zip(lap.state_counts, tail.state_counts)
        )

    def test_union_is_charged_every_node(self):
        node = wheels_within_wheels(inner=(3,) * 20)  # 21 nodes, all stepping
        with pytest.raises(BudgetError, match=f"work limit {SIMULATE_WORK_LIMIT}"):
            simulate(node, 10**6)

    def test_external_policy_just_advances_the_outer_machine(self):
        node = ClusterNode.leaf(wheel(3))
        state = initial_state(node)
        state, result = tick(state, node)
        assert result.advanced
        assert state.current == "b"
        assert state.ticks == 1

    def test_current_state_policy_advances_every_k_ticks(self):
        k = 3
        outer = wheel(2)
        node = ClusterNode(
            outer,
            scale=1,
            inner=(
                ("a", ClusterNode.leaf(wheel(k))),
                ("b", ClusterNode.leaf(wheel(k))),
            ),
            tick_policy="current-state",
        )
        state = initial_state(node)
        advances = []
        for t in range(1, 40):
            state, result = tick(state, node)
            if result.advanced:
                advances.append(t)
        gaps = [b - a for a, b in zip(advances, advances[1:])]
        assert all(gap == k for gap in gaps[2:])  # steady state after the fresh copies

    def test_current_state_without_driver_is_a_fixed_point(self):
        node = ClusterNode(
            wheel(2),
            scale=1,
            inner=(("b", ClusterNode.leaf(wheel(2))),),
            tick_policy="current-state",
        )
        state = initial_state(node)
        state2, result = tick(state, node)
        assert state2 == state
        assert not result.advanced and not result.halted

    def test_inner_machines_persist_across_outer_transitions(self):
        node = wheels_within_wheels(inner=(3, 5))
        state = initial_state(node)
        for _ in range(4):
            state, _ = tick(state, node)
        # the wheel inside "b" has been running the whole time, not resetting
        assert state.child("b").ticks == 4

    def test_child_of_an_unknown_state_names_the_children(self):
        state = initial_state(product(wheel(2), wheel(3)))
        known = r"no child at 'zz'; the children are \['a', 'b'\]"
        with pytest.raises(InputDomainError, match=known):
            state.child("zz")

    def test_halted_component_halts_the_cluster(self):
        node = ClusterNode(
            wheel(2),
            scale=1,
            inner=(("a", ClusterNode.leaf(chain(3))),),
            tick_policy="union",
        )
        report = simulate(node, 10)
        assert report.halted
        assert report.ticks_run < 10

    def test_tick_is_deterministic(self):
        node = wheels_within_wheels()
        s1 = initial_state(node)
        s2 = initial_state(node)
        for _ in range(20):
            s1, _ = tick(s1, node)
            s2, _ = tick(s2, node)
            assert s1 == s2

    def test_nondeterministic_component_rejected(self):
        node = ClusterNode.leaf(wheel(2, loops=("a",)))
        with pytest.raises(UnsupportedStructureError):
            tick(initial_state(node), node)

    @pytest.mark.parametrize(
        "children",
        [
            (("a", ClusterState("a")),),
            (("a", ClusterState("a")), ("b", ClusterState("a")), ("c", ClusterState("zz"))),
            (("a", ClusterState("a")), ("a", ClusterState("a"))),
            (("a", ClusterState("a")), ("b", ClusterState("a", 0, (("a", ClusterState("a")),)))),
        ],
        ids=["missing", "extra", "repeated", "under-a-leaf"],
    )
    def test_state_children_must_match_the_inner_states(self, children):
        node = product(wheel(2), wheel(3))
        with pytest.raises(InputDomainError, match="do not match the inner states"):
            tick(ClusterState("a", 0, children), node)


class TestCycleLength:
    def test_two_three_five(self):
        result = cycle_length(wheels_within_wheels(inner=(3, 5)))
        assert result.base_ticks == first_return_oracle(2, [3, 5]) == 30
        assert result.verified

    def test_single_wheel(self):
        node = ClusterNode.leaf(wheel(7))
        assert cycle_length(node).base_ticks == 7

    def test_trivial_outer(self):
        outer = wheel(1)
        node = ClusterNode(
            outer, scale=1, inner=(("a", ClusterNode.leaf(wheel(7))),), tick_policy="union"
        )
        assert cycle_length(node).base_ticks == 7

    def test_non_coprime_sizes_counted_by_sieve(self):
        assert wheel_cluster_cycle(2, [4, 6]) == first_return_oracle(2, [4, 6])
        assert wheel_cluster_cycle(3, [6, 10, 15]) == first_return_oracle(3, [6, 10, 15])

    def test_random_clusters_match_the_oracle(self):
        rng = Random(99)
        checked = 0
        while checked < 12:
            outer = rng.randint(1, 12)
            inner = [rng.randint(2, 30) for _ in range(rng.randint(1, 3))]
            analytic = wheel_cluster_cycle(outer, inner)
            if analytic > 60_000:
                continue
            assert analytic == first_return_oracle(outer, inner), (outer, inner)
            checked += 1

    def test_non_wheel_component_rejected(self):
        node = ClusterNode(
            wheel(2),
            scale=1,
            inner=(("a", ClusterNode.leaf(wheel(3, loops=("a",)))),),
            tick_policy="union",
        )
        with pytest.raises(UnsupportedStructureError):
            cycle_length(node)

    def test_depth_three_matches_stepping(self):
        mid = ClusterNode(
            wheel(2), scale=1, inner=(("a", ClusterNode.leaf(wheel(3))),), tick_policy="union"
        )
        top = ClusterNode(wheel(2), scale=2, inner=(("a", mid),), tick_policy="union")
        result = cycle_length(top)
        assert result.base_ticks == cluster_reference.first_return(top) == 12
        assert result.verified

    def test_three_level_union_of_union_clusters(self):
        top = ClusterNode(
            wheel(3),
            scale=2,
            inner=(
                ("a", union_over(wheel(3), wheel(3), wheel(5))),
                ("c", union_over(wheel(3), wheel(5), wheel(3))),
            ),
        )
        assert cycle_length(top).base_ticks == cluster_reference.first_return(top)

    @pytest.mark.parametrize("case", sorted(OTHER_EMITTING_SETS))
    def test_other_emitting_sets_match_stepping(self, case):
        node, expected = OTHER_EMITTING_SETS[case]
        result = cycle_length(node)
        assert result.base_ticks == cluster_reference.first_return(node) == expected
        assert result.verified

    @pytest.mark.parametrize(
        "node, expected",
        [
            # The leaves emit once per turn and recur together every
            # W = 1009 * 1013 = 1,022,117 ticks, past the window limit.  The
            # sizes are coprime, so by CRT the outer wheel advances on
            # A = W - 1008 * 1012 = 2,021 ticks per window, and
            # P = W * 2 / gcd(2021, 2) = 2,044,234.
            (
                union_over(wheel(2), emitting_wheel(1009, ["a"]), emitting_wheel(1013, ["a"])),
                2_044_234,
            ),
            # The window is the leaf's 1,000 ticks, with A = 1 advance, so
            # P = 1000 * 2000 / gcd(1, 2000) = 2,000,000.
            (union_over(wheel(2000), emitting_wheel(1000, ["a"])), 2_000_000),
        ],
        ids=["node0", "node1"],
    )
    def test_long_returns_are_answered(self, node, expected):
        result = cycle_length(node)
        assert result == CycleLength(expected, len(str(expected)), True)
        assert classify(node) == TemporalClass("C", expected)

    def test_window_past_the_limit_without_coprime_periods_is_refused(self):
        # lcm(2018, 2026) = 2018 * 2026 / 2 = 2,044,234 ticks of window
        node = union_over(wheel(2), emitting_wheel(2018, ["a"]), emitting_wheel(2026, ["a"]))
        refused = "not pairwise coprime .* window limit 1000000"
        with pytest.raises(BudgetError, match=refused):
            cycle_length(node)
        # classify reads the same summary, so it refuses with the same message
        with pytest.raises(BudgetError, match=refused):
            classify(node)

    def test_shape_is_checked_before_any_window(self):
        # The union node in 'a' has the window of the case above, past the
        # limit and not coprime, but the chain in 'b' is no wheel: the shape
        # error wins, and classify walks the lasso, which halts at the
        # chain's end after two configurations.
        mid = union_over(wheel(2), emitting_wheel(2018, ["a"]), emitting_wheel(2026, ["a"]))
        top = ClusterNode(
            wheel(3), scale=2, inner=(("a", mid), ("b", ClusterNode.leaf(chain(2), scale=1)))
        )
        refused = r"^chain-2 \(inside 'b'\) is not a pure wheel$"
        with pytest.raises(UnsupportedStructureError, match=refused):
            cycle_length(top)
        assert classify(top) == TemporalClass("L", 2)

    def test_the_leftmost_window_past_the_limit_is_refused(self):
        # Both subtrees are refused: lcm(2018, 2026) has 7 digits and
        # lcm(10000, 10002) = 50,010,000 has 8; the left one is met first.
        left = union_over(wheel(2), emitting_wheel(2018, ["a"]), emitting_wheel(2026, ["a"]))
        right = union_over(wheel(2), emitting_wheel(10_000, ["a"]), emitting_wheel(10_002, ["a"]))
        for first, second, digits in ((left, right, 7), (right, left, 8)):
            top = ClusterNode(wheel(2), scale=2, inner=(("a", first), ("b", second)))
            with pytest.raises(BudgetError, match=rf"\({digits} digits\)"):
                cycle_length(top)

    def test_silent_child_stays_out_of_the_window(self):
        # The 2018-wheel never emits, so only the 2026-wheel marks the
        # window: W = 2026, A = 1, core = 2026 * 2 = 4052.  The silent wheel
        # only has to be back as well: P = lcm(4052, 2018) = 4,088,468.
        node = union_over(wheel(2), emitting_wheel(2018, []), emitting_wheel(2026, ["a"]))
        assert cycle_length(node) == CycleLength(4_088_468, 7, True)

    def test_silent_leaf_one_level_down_stays_out_of_the_window(self):
        # The middle wheel has core 5 * 3 = 15, emitting once, and carries
        # the silent 2018-wheel along.  The top marks W = lcm(15, 2026) =
        # 30,390 (with the silent leaf it would be 2018 * 15 * 2026 / 2,
        # over the limit and not coprime): A = 2026 + 15 - 1 = 2,040, so
        # core = 30,390 and P = lcm(30390, 2018) = 30,663,510.
        mid = union_over(wheel(3), emitting_wheel(2018, []), emitting_wheel(5, ["a"]))
        top = ClusterNode(
            wheel(2),
            scale=2,
            inner=(("a", mid), ("b", ClusterNode.leaf(emitting_wheel(2026, ["a"])))),
        )
        assert cycle_length(top) == CycleLength(30_663_510, 8, True)

    def test_count_mode_inside_a_three_level_tree(self):
        # The middle wheel has the leaves of the 2,044,234 case above, so its
        # window W = 1009 * 1013 is past the limit and counted by CRT:
        # A = 2,021 = 43 * 47.  A 43-state wheel then turns 47 times per
        # period P = W, emitting 47 times.  Only (P, 47) reach the top, whose
        # children, of periods P and 5, are coprime as well.
        mid = union_over(wheel(43), emitting_wheel(1009, ["a"]), emitting_wheel(1013, ["a"]))
        top = ClusterNode(wheel(10), scale=2, inner=(("a", mid), ("b", ClusterNode.leaf(wheel(5)))))
        mid_period = 1009 * 1013
        mid_advances = mid_period - 1008 * 1012
        assert cycle_length(mid).base_ticks == mid_period * 43 // math.gcd(mid_advances, 43)
        mid_emissions = mid_advances // 43
        window = mid_period * 5
        advances = window - (mid_period - mid_emissions) * (5 - 1)
        expected = window * 10 // math.gcd(advances, 10)
        assert cycle_length(top).base_ticks == expected == 10_221_170

    def test_prime_power_construction_is_astronomical(self):
        sizes = max_prime_power_sizes(10_000)
        assert len(sizes) == 1229
        for expected in (8192, 6561, 3125, 2401, 1331, 2197):
            assert expected in sizes
        value = wheel_cluster_cycle(len(sizes), sizes)
        assert digit_count(value) > 4348

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: wheel_cluster_cycle(0, [3]), "wheel sizes must be >= 1"),
            (lambda: wheel_cluster_cycle(2, [3, 0]), "wheel sizes must be >= 1"),
            (lambda: max_prime_power_sizes(2), "limit must be at least 3"),
            (lambda: digit_count(-1), "digit count is defined for non-negative integers"),
        ],
        ids=["outer-size", "inner-size", "prime-power-limit", "negative-digit-count"],
    )
    def test_a_refused_size_names_its_fault(self, call, message):
        with pytest.raises(InputDomainError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("value, digits", [(0, 1), (9, 1), (10, 2), (10**40 - 1, 40)])
    def test_digit_count(self, value, digits):
        assert digit_count(value) == digits

    def test_budget_error_for_huge_non_coprime_windows(self):
        with pytest.raises(BudgetError):
            wheel_cluster_cycle(2, [2 * p for p in (3, 5, 7, 11, 13, 17, 19, 23)])


class TestClassify:
    def test_wheels_are_cyclic(self):
        for k in (1, 2, 7, 60):
            assert classify(wheel(k)) == TemporalClass("C", k)

    def test_chains_are_limited(self):
        for k in (1, 2, 5, 60):
            assert classify(chain(k)) == TemporalClass("L", k)

    def test_chain_with_absorbing_end_stays_limited(self):
        end = state_names(4)[-1]
        assert classify(chain(4, loops=(end,))) == TemporalClass("L", 4)

    def test_product_of_cycle_and_chain(self):
        assert classify(product(wheel(3), chain(4))).family == "L"
        looped_end = chain(4, loops=(state_names(4)[-1],))
        assert classify(product(wheel(3), looped_end)).family == "C"

    def test_small_products(self):
        assert classify(product(wheel(1), wheel(1))) == TemporalClass("C", 2)
        assert classify(product(chain(2), chain(2))) == TemporalClass("L", 2)

    def test_horizon_turns_large_cycles_effectively_infinite(self):
        result = classify(wheel(9), horizon=5)
        assert result == TemporalClass("Z", effective=True)
        chain_result = classify(chain(9), horizon=5)
        assert chain_result == TemporalClass("N", effective=True)

    def test_negative_horizon_is_rejected(self):
        with pytest.raises(InputDomainError, match=r"horizon must be >= 0, got -1"):
            classify(wheel(3), horizon=-1)

    def test_declared_openness(self):
        assert classify(wheel(3), open_start=True) == TemporalClass("P")
        assert classify(wheel(3), open_end=True) == TemporalClass("N")
        assert classify(wheel(3), open_start=True, open_end=True) == TemporalClass("Z")

    def test_nondeterministic_machines_rejected(self):
        with pytest.raises(UnsupportedStructureError):
            classify(wheel(3, loops=("a",)))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: TemporalClass("X"), ValueError, "family must be one of "),
            (lambda: TemporalClass("C"), ValueError,
             "size is present exactly for the C and L families"),
            (lambda: TemporalClass("Z", 3), ValueError,
             "size is present exactly for the C and L families"),
            (lambda: canonical_machine(TemporalClass("P")), InputDomainError,
             "P has no finite canonical representative"),
        ],
        ids=["family", "cycle-without-size", "sized-line", "no-representative"],
    )
    def test_a_refused_temporal_class_names_its_fault(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value).startswith(message)

    def test_str_forms(self):
        assert str(TemporalClass("C", 7)) == "C(7)"
        assert str(TemporalClass("L", 5)) == "L(5)"
        assert str(TemporalClass("Z")) == "Z"


class TestBisimilar:
    def test_four_wheel_does_not_bisimulate_two_wheel(self):
        assert not bisimilar(wheel(4), wheel(2)).equivalent

    def test_isomorphic_relabeling_is_bisimilar(self):
        m = wheel(3)
        renamed = Automaton.make(
            "renamed",
            ["p", "q", "r"],
            ["t"],
            "p",
            {"r": "1"},
            [("p", "t", "q"), ("q", "t", "r"), ("r", "t", "p")],
        )
        assert bisimilar(m, renamed).equivalent

    def test_one_state_loop_equals_its_canonical_cycle(self):
        assert bisimilar(wheel(1), canonical_machine(TemporalClass("C", 1))).equivalent

    def test_classified_machines_match_their_canonical_representatives(self):
        for k in (1, 2, 5, 17):
            assert bisimilar(wheel(k), canonical_machine(classify(wheel(k)))).equivalent
            assert bisimilar(chain(k), canonical_machine(classify(chain(k)))).equivalent

    def test_is_an_equivalence_on_a_menagerie_sample(self):
        sample = [wheel(1), wheel(2), wheel(3), wheel(4), chain(2), chain(3), chain(4)]
        sample += [wheel(2, loops=("a",)), chain(2, loops=("a",)), wheel(6), chain(6)]
        for m in sample:
            assert bisimilar(m, m).equivalent  # reflexive
        for m in sample:
            for n in sample:
                assert bisimilar(m, n).equivalent == bisimilar(n, m).equivalent  # symmetric
        for m in sample:
            for n in sample:
                for o in sample:
                    if bisimilar(m, n).equivalent and bisimilar(n, o).equivalent:
                        assert bisimilar(m, o).equivalent  # transitive

    def test_witness_partition_covers_both_machines(self):
        result = bisimilar(wheel(2), wheel(2))
        nodes = {member for block in result.partition for member in block}
        assert nodes == {("left", "a"), ("left", "b"), ("right", "a"), ("right", "b")}

    def test_needs_unary_machines(self):
        with pytest.raises(UnsupportedStructureError):
            bisimilar(synapse(), wheel(4))

    def test_myriad_wheel_pair_pairs_every_state(self):
        left, right = wheel(10_000), wheel(10_000)
        started = time.perf_counter()
        result = bisimilar(left, right)
        assert time.perf_counter() - started < 1.0
        assert result.equivalent
        # blocks are keyed by their rank of first appearance, sorted as text
        names = left.states
        assert result.partition == tuple(
            (("left", names[k]), ("right", names[k])) for k in sorted(range(10_000), key=str)
        )

    def test_myriad_lazy_wheel_pair_listed_backwards(self):
        # Each round splits off the state before the last one split off,
        # now the lowest-indexed state of the silent block, and the self-loops
        # make every state of a moved block dirty: a refinement that kept the
        # first piece, not the largest, would move the whole silent block on
        # every one of 10,000 rounds.
        names = state_names(10_000)
        edges = [(p, "e", q) for p, q in zip(names, names[1:] + names[:1])]
        edges += [(q, "e", q) for q in names]
        backwards = Automaton.make("lazy", names[::-1], ("e",), names[0], {names[-1]: "1"}, edges)
        started = time.perf_counter()
        result = bisimilar(backwards, backwards)
        assert time.perf_counter() - started < 1.0
        assert result.equivalent
        assert len(result.partition) == 10_000

    def test_wheels_of_different_periods_share_no_block(self):
        # each state's output sequence has the period of its own wheel
        result = bisimilar(wheel(10_000), wheel(5_000))
        assert not result.equivalent
        nodes = [("left", q) for q in state_names(10_000)]
        nodes += [("right", q) for q in state_names(5_000)]
        assert result.partition == tuple((nodes[k],) for k in sorted(range(15_000), key=str))

    def test_myriad_nondeterministic_machine_matches_its_shuffled_copy(self):
        rng = Random(7)
        names = [f"s{i}" for i in range(10_000)]
        edges = [(p, "e", q) for p in names for q in rng.sample(names, rng.randint(0, 3))]
        outputs = {q: rng.choice(("", "", "", "1")) for q in names}
        left = Automaton.make("left", names, ("e",), names[0], outputs, edges)
        right = shuffled_copy(left, seed=7)
        started = time.perf_counter()
        result = bisimilar(left, right)
        assert time.perf_counter() - started < 2.0
        assert result.equivalent
        for block in result.partition:  # as many copies as originals in every block
            assert sum(side == "left" for side, _ in block) * 2 == len(block)


class TestUnfoldAndSerialization:
    def test_unfold_of_a_product_is_deterministic_unary(self):
        machine = unfold(product(wheel(3), wheel(5)))
        assert machine.inputs == ("e",)
        assert machine.deterministic
        assert len(machine.states) == 30  # full configuration cycle

    def test_unfold_budget(self):
        with pytest.raises(BudgetError):
            unfold(product(wheel(7), wheel(11)), budget=10)

    def test_one_configuration_fits_any_budget(self):
        # the lasso never counts the start, so a one-tick period needs none
        node = ClusterNode.leaf(wheel(1))
        assert unfold(node, budget=0) == cluster_reference.unfold(node, budget=0)
        assert len(unfold(node, budget=0).states) == 1

    def test_a_long_period_is_refused_up_front(self):
        node = product(wheel(997), wheel(1009))  # a period of 2 * 997 * 1009
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="unfolding exceeded 100000 configurations") as info:
            unfold(node)
        assert time.perf_counter() - started < 0.05
        assert (info.value.used, info.value.limit) == (2 * 997 * 1009, 100_000)

    def test_the_lasso_reports_the_configurations_it_reached(self):
        node = product(chain(3, loops=("c",)), wheel(7))  # not a wheel tree
        with pytest.raises(BudgetError) as info:
            unfold(node, budget=5)
        assert (info.value.used, info.value.limit) == (6, 5)

    def test_a_period_past_the_window_limit_is_stepped(self, monkeypatch):
        # emitting wheels of 4 and 6 recur together every 12 ticks, over a
        # window limit of 10 and not coprime: cycle_length refuses, unfold steps
        node = union_over(wheel(2), wheel(4), wheel(6))
        monkeypatch.setattr(cluster, "CYCLE_WINDOW_LIMIT", 10)
        with pytest.raises(BudgetError, match="window limit 10"):
            cycle_length(node)
        assert unfold(node, budget=12) == cluster_reference.unfold(node, budget=12)
        with pytest.raises(BudgetError, match="unfolding exceeded 11 configurations"):
            unfold(node, budget=11)

    def test_a_coprime_window_within_the_budget_is_marked(self, monkeypatch):
        # emitting wheels of 3 and 5 recur together every 15 ticks, over a
        # window limit of 10 but coprime: cycle_length counts by CRT, while
        # unfold marks every window within its budget and reads those marks
        node = union_over(wheel(2), wheel(3), wheel(5))
        monkeypatch.setattr(cluster, "CYCLE_WINDOW_LIMIT", 10)
        assert cycle_length(node).base_ticks == 30
        assert unfold(node, budget=100) == cluster_reference.unfold(node, budget=100)
        with pytest.raises(BudgetError, match="unfolding exceeded 12 configurations") as info:
            unfold(node, budget=12)  # a window past the budget gives a period past it
        assert (info.value.used, info.value.limit) == (30, 12)

    def test_cluster_json_round_trip(self):
        node = wheels_within_wheels()
        text = node_to_json(node)
        again = node_from_json(text)
        assert node_to_json(again) == text
        assert again == node

    @pytest.mark.parametrize(
        "change",
        [
            {"scale": "1"},
            {"tick_policy": "sometimes"},
            {"inner": {"a": {"machine": to_doc(wheel(3)), "scale": 1}}},
            {"inner": {"zz": {"machine": to_doc(wheel(3))}}},
            {"inner": []},
        ],
        ids=["string-scale", "unknown-policy", "inner-not-faster", "inner-on-unknown-state",
             "inner-list"],
    )
    def test_wrong_shape_document_is_malformed(self, change):
        doc = {**node_to_doc(wheels_within_wheels()), **change}
        with pytest.raises(InputDomainError, match="^malformed cluster document: "):
            node_from_doc(doc)

    def test_node_without_machine_is_malformed(self):
        with pytest.raises(InputDomainError, match="^malformed cluster document: 'machine'"):
            node_from_doc({"scale": 0})

    def test_a_malformed_machine_keeps_its_own_error(self):
        doc = node_to_doc(wheels_within_wheels())
        doc["inner"]["a"]["machine"]["states"] = "ab"
        with pytest.raises(InputDomainError, match="^malformed machine document: states must"):
            node_from_doc(doc)

    def test_text_that_is_not_json_is_a_malformed_cluster(self):
        with pytest.raises(InputDomainError, match="^malformed cluster document: Expecting"):
            node_from_json("{not json")

    def test_product_scale_bounds(self):
        with pytest.raises(InputDomainError):
            product(wheel(2), wheel(2), scale=18)
