"""Occupancy, stationary behavior, wheel approximation, synchronizing words.

Expected values come from independent oracles computed here: exhaustive path
enumeration, a direct Fibonacci recurrence, exact cycle arithmetic, and
brute-force word application.
"""
import math
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from cmoore.analysis import (
    EXACT_PATH_LIMIT,
    OCCUPANCY_WORK_LIMIT,
    FiniteDistribution,
    OccupancyVector,
    approximate_distribution,
    monte_carlo_occupancy,
    path_count_occupancy,
    signal_occupancy,
    stationary_distribution,
    synchronizing_word,
)
from cmoore.errors import (
    AmbiguousChainError,
    BudgetError,
    HaltedError,
    InfeasibleError,
    InputDomainError,
)
from cmoore.machine import Automaton, Constraints, validate
from cmoore.menagerie import annotate_outputs, chain, synapse, wheel, wire

GOLDEN_RECIPROCAL = 2 / (1 + math.sqrt(5))


def looped_two_wheel():
    return wheel(2, loops=("a",))


def enumerate_paths(machine, steps):
    """Oracle: depth-first enumeration of all equal-length paths."""
    symbol = machine.inputs[0]
    counts = {q: 0 for q in machine.states}

    def walk(state, remaining):
        if remaining == 0:
            counts[state] += 1
            return
        for nxt in machine.successors(state, symbol):
            walk(nxt, remaining - 1)

    walk(machine.initial, steps)
    return counts


def fibonacci(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def exact_stationary(machine):
    """Oracle: solve vP = v with sum(v) = 1 in rationals by Gauss-Jordan
    elimination, for a unary machine that is one closed class."""
    states = machine.states
    n = len(states)
    index = {q: i for i, q in enumerate(states)}
    # row j: sum_i v_i P_ij - v_j = 0; the last row is replaced by sum(v) = 1
    rows = [[Fraction(-(i == j)) for i in range(n)] + [Fraction(0)] for j in range(n)]
    for p in states:
        targets = machine.successors(p, machine.inputs[0])
        for q in targets:
            rows[index[q]][index[p]] += Fraction(1, len(targets))
    rows[-1] = [Fraction(1)] * (n + 1)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return {q: rows[i][n] / rows[i][i] for q, i in index.items()}


def prop3_wheel():
    m = wheel(10)
    labels = {q: "1" if i < 5 else "2" if i < 8 else "3" for i, q in enumerate(m.states)}
    return annotate_outputs(m, labels)


class TestOccupancyVector:
    def test_exact_entries_over_mixed_denominators_sum_to_one(self):
        entries = (("a", Fraction(1, 2)), ("b", Fraction(1, 3)), ("c", Fraction(1, 6)), ("d", 0))
        assert OccupancyVector(entries, horizon=None, exact=True).as_dict()["c"] == Fraction(1, 6)

    @pytest.mark.parametrize(
        "values, total",
        [((Fraction(1, 2), Fraction(1, 3)), "5/6"), ((), "0"), ((1, Fraction(1, 7)), "8/7")],
    )
    def test_an_exact_sum_off_one_is_refused_with_the_sum(self, values, total):
        entries = tuple((f"s{i}", v) for i, v in enumerate(values))
        with pytest.raises(ValueError) as info:
            OccupancyVector(entries, horizon=None, exact=True)
        assert str(info.value) == f"exact occupancy must sum to 1, got {total}"

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=50), max_size=8))
    def test_the_exact_check_agrees_with_a_fraction_sum(self, values):
        if sum(values) != 1:  # complete the draw to a sum of 1
            values = values + [1 - sum(values)]
        entries = tuple((f"s{i}", v) for i, v in enumerate(values))
        OccupancyVector(entries, horizon=None, exact=True)
        with pytest.raises(ValueError):
            OccupancyVector(entries + (("extra", Fraction(1, 97)),), horizon=None, exact=True)

    def test_exact_entries_that_are_not_rationals_are_added_as_they_are(self):
        OccupancyVector((("a", 0.5), ("b", 0.5)), horizon=None, exact=True)
        with pytest.raises(ValueError, match="^exact occupancy must sum to 1, got 0.75$"):
            OccupancyVector((("a", 0.5), ("b", 0.25)), horizon=None, exact=True)

    def test_float_entries_keep_their_tolerance(self):
        OccupancyVector((("a", 0.1), ("b", 0.2), ("c", 0.7)), horizon=None, exact=False)
        with pytest.raises(ValueError, match="within 1e-12, got 0.9"):
            OccupancyVector((("a", 0.4), ("b", 0.5)), horizon=None, exact=False)


class TestPathCountOccupancy:
    def test_three_steps_match_exhaustive_enumeration(self):
        m = looped_two_wheel()
        vector = path_count_occupancy(m, 3)
        oracle = enumerate_paths(m, 3)
        total = sum(oracle.values())
        assert vector["a"] == Fraction(oracle["a"], total) == Fraction(3, 5)
        assert vector["b"] == Fraction(2, 5)

    def test_forty_steps_hit_the_golden_ratio(self):
        vector = path_count_occupancy(looped_two_wheel(), 40)
        assert vector["a"] == Fraction(fibonacci(41), fibonacci(42))
        assert abs(float(vector["a"]) - 0.61803) < 1e-3

    def test_deterministic_wheel_concentrates_on_one_state(self):
        m = wheel(4)
        vector = path_count_occupancy(m, 7)
        assert vector[m.states[7 % 4]] == 1

    def test_halted_chain_raises(self):
        for steps in (5, EXACT_PATH_LIMIT + 1):  # counted exactly, then in floats
            with pytest.raises(HaltedError, match=r": no paths survive past tick 3$"):
                path_count_occupancy(chain(3), steps)

    def test_fibonacci_ratio_for_all_horizons_up_to_sixty(self):
        m = looped_two_wheel()
        for n in range(0, 61):
            vector = path_count_occupancy(m, n)
            assert vector["a"] == Fraction(fibonacci(n + 1), fibonacci(n + 2))

    def test_error_magnitude_strictly_decreases(self):
        m = looped_two_wheel()
        errors = [
            abs(float(path_count_occupancy(m, n)["a"]) - GOLDEN_RECIPROCAL)
            for n in range(0, 30)
        ]
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        evens = [float(path_count_occupancy(m, n)["a"]) for n in range(0, 20, 2)]
        odds = [float(path_count_occupancy(m, n)["a"]) for n in range(1, 20, 2)]
        assert all(x > y for x, y in zip(evens, evens[1:]))
        assert all(x < y for x, y in zip(odds, odds[1:]))

    def test_close_to_limit_beyond_thirty_five_steps(self):
        m = looped_two_wheel()
        for n in (35, 50, 60):
            assert abs(float(path_count_occupancy(m, n)["a"]) - 0.618034) < 1e-6

    def test_float_mode_beyond_exact_limit_agrees(self):
        m = looped_two_wheel()
        vector = path_count_occupancy(m, 250)
        assert not vector.exact
        assert abs(vector["a"] - GOLDEN_RECIPROCAL) < 1e-9

    def test_negative_steps(self):
        with pytest.raises(InputDomainError):
            path_count_occupancy(wheel(2), -1)

    def test_myriad_wheel_counts_a_thousand_steps(self):
        m = wheel(10_000)
        vector = path_count_occupancy(m, 1000)
        assert vector[m.states[1000]] == 1.0

    def test_over_the_work_limit_raises_before_counting(self):
        # wheel:3 at 8,333,333 steps visits 50,000,000 states and edges, within
        # the limit, but every step also has a fixed cost: uncharged, it ran 12 s
        for size, steps in ((10_000, 100_000), (3, 8_333_333)):
            started = time.perf_counter()
            with pytest.raises(BudgetError, match="work limit") as info:
                path_count_occupancy(wheel(size), steps)
            assert time.perf_counter() - started < 1.0
            assert info.value.used == (2 * size + 24) * steps


class TestStationaryDistribution:
    def test_looped_two_wheel(self):
        vector = stationary_distribution(looped_two_wheel())
        assert abs(vector["a"] - 2 / 3) < 1e-9
        assert abs(vector["b"] - 1 / 3) < 1e-9

    def test_wheels_are_uniform_and_exact(self):
        for k in (1, 3, 8):
            vector = stationary_distribution(wheel(k))
            assert vector.exact
            assert all(value == Fraction(1, k) for _, value in vector.entries)

    def test_prop3_signal_shares(self):
        m = prop3_wheel()
        shares = signal_occupancy(stationary_distribution(m), m)
        assert shares == {"1": Fraction(1, 2), "2": Fraction(3, 10), "3": Fraction(1, 5)}

    def test_fixed_point_residual(self):
        m = looped_two_wheel()
        vector = stationary_distribution(m).as_dict()
        # v P = v for the uniform-choice chain: a -> {a, b}, b -> {a}
        next_a = vector["a"] / 2 + vector["b"]
        next_b = vector["a"] / 2
        assert abs(next_a - vector["a"]) + abs(next_b - vector["b"]) < 1e-10

    def test_incomplete_machine_rejected(self):
        with pytest.raises(InputDomainError):
            stationary_distribution(chain(3))

    def test_multiple_closed_classes(self):
        m = Automaton.make(
            "split",
            ["s", "p", "q"],
            ["e"],
            "s",
            edges=[("s", "e", "p"), ("s", "e", "q"), ("p", "e", "p"), ("q", "e", "q")],
        )
        with pytest.raises(AmbiguousChainError) as err:
            stationary_distribution(m)
        assert err.value.classes == (("p",), ("q",))

    def test_transient_states_get_zero_mass(self):
        m = Automaton.make(
            "lead-in",
            ["s", "a", "b"],
            ["e"],
            "s",
            edges=[("s", "e", "a"), ("a", "e", "b"), ("b", "e", "a")],
        )
        vector = stationary_distribution(m)
        assert vector["s"] == 0
        assert vector["a"] == Fraction(1, 2)

    def test_myriad_state_stem_into_a_two_cycle(self):
        # the depth-first pass goes 10,000 states deep, far past the
        # interpreter's recursion limit
        names = [f"s{i}" for i in range(10_000)]
        edges = [(p, "e", q) for p, q in zip(names, names[1:])] + [(names[-1], "e", names[-2])]
        m = Automaton.make("stem", names, ["e"], names[0], edges=edges)
        started = time.perf_counter()
        vector = stationary_distribution(m)
        assert time.perf_counter() - started < 1.0
        assert vector.exact
        assert vector[names[-2]] == vector[names[-1]] == Fraction(1, 2)

    @pytest.mark.parametrize("n", (100, 10_000))
    def test_lazy_wheels_answer_promptly(self, n):
        m = wheel(n, loops=("a",))
        started = time.perf_counter()
        vector = stationary_distribution(m)
        assert time.perf_counter() - started < 1.0
        assert abs(vector["a"] - 2 / (n + 1)) < 1e-9
        assert all(abs(value - 1 / (n + 1)) < 1e-9 for q, value in vector.entries if q != "a")

    @pytest.mark.parametrize(
        "edges",
        (
            # period 2: every cycle alternates between {a, d} and {b, c}
            "a>b a>c b>a b>d c>a d>b",
            # period 3: layers {a}, {b, c}, {d, e}
            "a>b a>c b>d c>d c>e d>a e>a",
        ),
    )
    def test_periodic_classes_match_an_exact_solve(self, edges):
        pairs = [tuple(edge.split(">")) for edge in edges.split()]
        states = sorted({q for pair in pairs for q in pair})
        m = Automaton.make("periodic", states, ["e"], "a", edges=[(p, "e", q) for p, q in pairs])
        vector = stationary_distribution(m)
        assert not vector.exact
        expected = exact_stationary(m)
        assert all(abs(vector[q] - expected[q]) < 1e-9 for q in states)

    def test_slow_mixing_class_exceeds_the_work_limit_promptly(self):
        # i -> i+1 plus random steps back and forth: Gauss-Seidel mixes too
        # slowly here to reach the residual within the work limit
        rng = Random(7)
        n = 1000
        names = [f"s{i}" for i in range(n)]
        edges = []
        for i in range(n):
            targets = {(i + 1) % n} | {(i + d) % n for d in (-1, -2, 2) if rng.random() < 0.5}
            edges += [(names[i], "e", names[j]) for j in sorted(targets)]
        m = Automaton.make("diffusive", names, ["e"], names[0], edges=edges)
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="work limit") as info:
            stationary_distribution(m)
        assert time.perf_counter() - started < 10.0
        assert info.value.used > info.value.limit == OCCUPANCY_WORK_LIMIT


class TestMonteCarlo:
    def test_looped_two_wheel_converges(self):
        vector = monte_carlo_occupancy(looped_two_wheel(), 100_000, seed=7)
        assert abs(vector["a"] - 2 / 3) < 6e-3

    def test_three_wheel_near_uniform(self):
        vector = monte_carlo_occupancy(wheel(3), 300_000, seed=1)
        for _, value in vector.entries:
            assert abs(value - 1 / 3) < 1e-5

    def test_same_seed_same_vector(self):
        a = monte_carlo_occupancy(looped_two_wheel(), 5_000, seed=42)
        b = monte_carlo_occupancy(looped_two_wheel(), 5_000, seed=42)
        assert a == b

    def test_halt_carries_partial_data(self):
        m = Automaton.make(
            "stub", ["a", "b"], ["e"], "a", edges=[("a", "e", "b")]
        )
        with pytest.raises(HaltedError) as err:
            monte_carlo_occupancy(m, 10, seed=0)
        assert err.value.partial is not None
        assert err.value.partial["b"] == 0.5

    def test_over_the_work_limit_raises_before_the_run(self):
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="work limit") as info:
            monte_carlo_occupancy(wheel(3, loops=("a", "b", "c")), 10**9, seed=0)
        assert time.perf_counter() - started < 1.0
        assert (info.value.used, info.value.limit) == (24 * 10**9, OCCUPANCY_WORK_LIMIT)

    def test_doubling_steps_does_not_double_deviation(self):
        m = looped_two_wheel()
        for seed in (0, 1, 2):
            small = monte_carlo_occupancy(m, 50_000, seed=seed)
            large = monte_carlo_occupancy(m, 100_000, seed=seed)
            dev_small = abs(small["a"] - 2 / 3)
            dev_large = abs(large["a"] - 2 / 3)
            assert dev_large <= 2 * dev_small


@pytest.mark.parametrize(
    "outcomes, probabilities, message",
    [
        ((), (), "a distribution needs at least one outcome"),
        (("a", "a"), (Fraction(1, 2),) * 2, "outcome labels must be distinct"),
        (("a", ""), (Fraction(1, 2),) * 2, "outcome labels must be non-empty"),
        (("a", "b"), (Fraction(1),), "one probability per outcome"),
        (("a", "b"), (Fraction(3, 2), Fraction(-1, 2)), "probabilities must be non-negative"),
        (("a", "b"), (Fraction(1, 2), Fraction(1, 4)), "probabilities must sum to 1, got 3/4"),
    ],
    ids=["empty", "repeated", "blank", "count", "negative", "sum"],
)
def test_a_refused_distribution_names_its_fault(outcomes, probabilities, message):
    with pytest.raises(ValueError) as info:
        FiniteDistribution(outcomes, probabilities)
    assert str(info.value) == message


class TestApproximateDistribution:
    def test_half_three_two_is_exact_at_ten(self):
        dist = FiniteDistribution.parse("0.5,0.3,0.2")
        m = approximate_distribution(dist, Fraction(1, 100))
        assert len(m.states) == 10
        shares = signal_occupancy(stationary_distribution(m), m)
        assert shares == {"1": Fraction(1, 2), "2": Fraction(3, 10), "3": Fraction(1, 5)}

    def test_single_outcome(self):
        dist = FiniteDistribution.make([("win", 1)])
        m = approximate_distribution(dist, Fraction(1, 2))
        assert len(m.states) == 1
        assert m.output_of(m.states[0]) == "win"

    def test_infeasible_tolerance_reports_best(self):
        delta = Fraction(1, 10**7)
        dist = FiniteDistribution.make(
            [("x", Fraction(1, 2)), ("y", Fraction(1, 4) + delta), ("z", Fraction(1, 4) - delta)]
        )
        with pytest.raises(InfeasibleError) as err:
            approximate_distribution(dist, Fraction(1, 10**9))
        assert err.value.best_epsilon is not None
        assert err.value.best_epsilon > Fraction(1, 10**9)

    def test_result_validates_and_meets_epsilon_componentwise(self):
        dist = FiniteDistribution.make(
            [("p", Fraction(17, 100)), ("q", Fraction(53, 100)), ("r", Fraction(30, 100))]
        )
        eps = Fraction(1, 50)
        m = approximate_distribution(dist, eps)
        assert validate(m) == []
        shares = signal_occupancy(stationary_distribution(m), m)
        for label, p in zip(dist.outcomes, dist.probabilities):
            assert abs(shares.get(label, Fraction(0)) - p) <= eps

    def test_prime_denominator_scans_the_whole_budget_in_integers(self):
        # no wheel of up to 10,000 states comes within 1e-9 of thirds of
        # 99,991; the best size and its miss are those the Fraction scan gave
        dist = FiniteDistribution.make(
            [("a", Fraction(39_902, 99_991)), ("b", Fraction(20_067, 99_991)),
             ("c", Fraction(40_022, 99_991))]
        )
        started = time.perf_counter()
        with pytest.raises(InfeasibleError) as err:
            approximate_distribution(dist, Fraction(1, 10**9))
        assert time.perf_counter() - started < 1.0
        assert err.value.best_epsilon == Fraction(5_103, 995_510_396)
        assert err.value.best_size == 9_956
        assert "best achievable is 5.126e-06 at size 9956" in str(err.value)

    def test_epsilon_is_inclusive(self):
        # size 2 gives (1, 1), which misses 1/3 and 2/3 by exactly 1/6
        dist = FiniteDistribution.make([("a", Fraction(1, 3)), ("b", Fraction(2, 3))])
        assert len(approximate_distribution(dist, Fraction(1, 6)).states) == 2

    def test_equal_misses_report_the_smallest_size(self):
        # sizes 2 and 3 both give "a" no state and miss 1/7 by 1/7
        dist = FiniteDistribution.make([("a", Fraction(1, 7)), ("b", Fraction(6, 7))])
        with pytest.raises(InfeasibleError) as err:
            approximate_distribution(dist, Fraction(1, 8), Constraints(max_states=3))
        assert (err.value.best_epsilon, err.value.best_size) == (Fraction(1, 7), 2)

    def test_budget_below_one_state_per_outcome_is_infeasible(self):
        dist = FiniteDistribution.parse("0.2,0.3,0.5")
        with pytest.raises(InfeasibleError, match="starts at 3 states, one per outcome"):
            approximate_distribution(dist, Fraction(1, 10), Constraints(max_states=2))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            FiniteDistribution.make([("a", Fraction(1, 2)), ("b", Fraction(1, 4))])
        with pytest.raises(InputDomainError):
            approximate_distribution(FiniteDistribution.make([("a", 1)]), 0)


class TestSynchronizingWord:
    def test_pure_wheels_cannot_synchronize(self):
        for k in (2, 3, 7):
            assert synchronizing_word(wheel(k)) is None

    def test_wire_synchronizes_in_one_symbol(self):
        result = synchronizing_word(wire(("x", "y")))
        assert result is not None
        assert len(result.word) == 1
        assert result.sink == result.word[0]
        assert result.shortest
        assert not result.sink_is_initial

    def test_single_state_machine(self):
        result = synchronizing_word(wheel(1))
        assert result.word == ()
        assert result.sink_is_initial

    def test_preconditions(self):
        with pytest.raises(InputDomainError):
            synchronizing_word(chain(3))  # not complete
        with pytest.raises(InputDomainError):
            synchronizing_word(synapse())  # not deterministic

    def test_random_machines_respect_the_conjecture_bound(self):
        rng = Random(2024)
        found = 0
        for trial in range(40):
            n = rng.randint(2, 8)
            names = [f"s{i}" for i in range(n)]
            edges = [
                (p, sym, names[rng.randrange(n)]) for p in names for sym in ("x", "y")
            ]
            m = Automaton.make(f"rand{trial}", names, ["x", "y"], names[0], edges=edges)
            result = synchronizing_word(m)
            if result is None:
                continue
            found += 1
            assert len(result.word) <= (n - 1) ** 2
            image = set(names)
            for sym in result.word:
                image = {m.successors(q, sym)[0] for q in image}
            assert image == {result.sink}
        assert found > 10  # random complete maps synchronize often

    def test_cerny_18_gets_its_shortest_word(self):
        m = cerny(18)
        started = time.perf_counter()
        result = synchronizing_word(m)
        assert time.perf_counter() - started < 2.0
        assert result.shortest
        assert len(result.word) == 17**2
        assert replay(m, result.word) == {result.sink}

    def test_cerny_20_exceeds_the_subset_budget_promptly(self):
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="^cerny-20: subset search exceeded 1000000 subsets$"):
            synchronizing_word(cerny(20))
        assert time.perf_counter() - started < 5.0

    def test_subset_budget_error_carries_the_count(self):
        with pytest.raises(BudgetError, match="subset search exceeded 10 subsets") as info:
            synchronizing_word(cerny(8), budget=10)
        assert (info.value.used, info.value.limit) == (11, 10)


class TestGreedySynchronization:
    def test_large_machines_fall_back_to_greedy_merging(self):
        # 30 states exceeds the subset-search limit, so the word is greedy.
        # Rotation plus a single merging letter always synchronizes.
        names = [f"q{i}" for i in range(30)]
        edges = []
        for i, name in enumerate(names):
            edges.append((name, "a", names[(i + 1) % 30]))
            edges.append((name, "b", names[1] if i == 0 else name))
        m = Automaton.make("big", names, ("a", "b"), names[0], edges=edges)
        result = synchronizing_word(m)
        assert result is not None
        assert not result.shortest
        image = set(names)
        for sym in result.word:
            image = {m.successors(q, sym)[0] for q in image}
        assert image == {result.sink}

    def test_kernels_shaped_dfas_answer_at_any_size(self):
        for n in (600, 2_000, 10_000):
            m = kernels_shaped_dfa(n, seed=n)
            started = time.perf_counter()
            result = synchronizing_word(m)
            elapsed = time.perf_counter() - started
            assert result is not None
            assert not result.shortest
            assert replay(m, result.word) == {result.sink}
            if n == 10_000:
                assert elapsed < 2.0

    @pytest.mark.parametrize("n", [30, 50, 100])
    def test_cerny_words_have_quadratic_length(self, n):
        m = cerny(n)
        result = synchronizing_word(m)
        assert len(result.word) == (n - 1) ** 2
        assert replay(m, result.word) == {result.sink}

    def test_cerny_500_answers(self):
        result = synchronizing_word(cerny(500))
        assert result is not None
        assert len(result.word) == 499**2

    def test_cerny_10000_exceeds_the_work_limit_promptly(self):
        m = cerny(10_000)
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="work limit"):
            synchronizing_word(m)
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize("n, letters", [(10_000, 2), (2_000, 64)])
    def test_permutation_letters_never_synchronize(self, n, letters):
        m = permutation_dfa(n, letters, seed=n)
        m._succ  # built once per machine, before timing
        started = time.perf_counter()
        assert synchronizing_word(m) is None
        assert time.perf_counter() - started < 1.0

    def test_one_merging_letter_beside_permutations_still_synchronizes(self):
        m = with_merging_letter(permutation_dfa(40, 2, seed=1))
        result = synchronizing_word(m)
        assert result is not None
        assert replay(m, result.word) == {result.sink}

    def test_many_letter_permutations_stop_promptly(self):
        # 64 permutation letters reach all two million pairs, and one more
        # letter merges a single pair, so the pair search runs; the work
        # limit must count each letter tried.
        m = with_merging_letter(permutation_dfa(2_000, 64, seed=5))
        started = time.perf_counter()
        try:
            result = synchronizing_word(m)
            assert result is not None and replay(m, result.word) == {result.sink}
        except BudgetError as exc:
            assert "work limit" in str(exc)
        assert time.perf_counter() - started < 10.0


def permutation_dfa(n, letters, seed):
    """A DFA whose letters are random permutations, so it never synchronizes."""
    rng = Random(seed)
    names = [f"s{i}" for i in range(n)]
    inputs = [f"x{j}" for j in range(letters)]
    edges = []
    for symbol in inputs:
        image = list(names)
        rng.shuffle(image)
        edges += zip(names, [symbol] * n, image)
    return Automaton.make(f"perm-{n}", names, inputs, names[0], edges=edges)


def with_merging_letter(machine):
    """``machine`` plus a letter that sends its second state onto its first
    and fixes every other state."""
    first, second = machine.states[:2]
    edges = list(machine.edges)
    edges += [(q, "merge", first if q == second else q) for q in machine.states]
    inputs = machine.inputs + ("merge",)
    return Automaton.make(f"{machine.name}+merge", machine.states, inputs, first, edges=edges)


def kernels_shaped_dfa(n, seed):
    """A synchronizing DFA over a, b, c: a and b form a Cerny automaton on
    shuffled states, and c maps every state into a random third of them."""
    rng = Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    image = rng.sample(range(n), n // 3)
    names = [f"s{i}" for i in range(n)]
    edges = []
    for k, q in enumerate(order):
        edges.append((names[q], "a", names[order[(k + 1) % n]]))
        edges.append((names[q], "b", names[order[0] if k == n - 1 else q]))
        edges.append((names[q], "c", names[rng.choice(image)]))
    return Automaton.make(f"dfa-{n}", names, ("a", "b", "c"), names[0], edges=edges)


def cerny(n):
    """The Cerny automaton: a turns the cycle, b moves state 0 onto 1.  Its
    shortest synchronizing word has (n - 1)**2 letters."""
    names = [f"q{i}" for i in range(n)]
    edges = [(q, "a", names[(i + 1) % n]) for i, q in enumerate(names)]
    edges += [(q, "b", names[1] if i == 0 else q) for i, q in enumerate(names)]
    return Automaton.make(f"cerny-{n}", names, ("a", "b"), names[0], edges=edges)


def replay(machine, word):
    """Oracle: the image of all states under ``word``, from the edge list."""
    move = {(p, symbol): q for p, symbol, q in machine.edges}
    image = set(machine.states)
    for symbol in word:
        image = {move[(q, symbol)] for q in image}
    return image
