"""The interval store and closed forms against the list-based reference.

Explicit fluents with overlapping, touching and empty true ranges, and
cyclic fluents with wrapping phases, are installed in both a ``FluentStore``
and the reference store of ``fluents_reference``.  Every query (all three
modes, random theta given as a Fraction, float, int or string, windows
inside, across and outside the domain, at negative indices, at scales below
and above the store) must give the same truth value, or raise the same error
type with the same message.
"""
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fluents_reference as ref
from cmoore.cluster import ScaleSystem
from cmoore.errors import DomainError, InputDomainError
from cmoore.fluents import FluentStore, TimePoint, evaluate

settings.register_profile(
    "fluents-differential",
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)
DIFFERENTIAL = settings.get_profile("fluents-differential")

MODES = ("forall", "exists", "preponderant")


def outcome(call):
    try:
        return "ok", call()
    except DomainError as exc:
        return type(exc), str(exc)


@st.composite
def stores(draw):
    """Scales 0-2 with small branching, a base of 0 or 1, and up to three
    explicit and two cyclic fluents."""
    scales = ScaleSystem(
        min_scale=0,
        max_scale=2,
        factors=((1, draw(st.integers(2, 9))), (2, draw(st.integers(2, 5)))),
    )
    base = draw(st.integers(0, 1))
    explicit = {}
    for k in range(draw(st.integers(0, 3))):
        start = draw(st.integers(-40, 10))
        stop = start + draw(st.integers(1, 120))
        if draw(st.booleans()):
            # one range per true unit: neighbours touch and must merge
            values = draw(st.lists(st.booleans(), min_size=stop - start, max_size=stop - start))
            ranges = [(start + i, start + i + 1) for i, v in enumerate(values) if v]
        else:
            lows = draw(st.lists(st.integers(start, stop), max_size=10))
            # a length of zero or less makes an empty range
            ranges = [(lo, min(stop, lo + draw(st.integers(-3, 8)))) for lo in lows]
        for lo, hi in [(lo, hi) for lo, hi in ranges if lo < hi]:
            if draw(st.booleans()):  # a range touching this one on the right
                ranges.append((hi, min(stop, hi + draw(st.integers(0, 5)))))
            if draw(st.booleans()):  # one overlapping it
                ranges.append((lo + (hi - lo) // 2, hi))
        explicit[f"e{k}"] = ((start, stop), draw(st.permutations(ranges)))
    cyclic = {}
    for k in range(draw(st.integers(0, 2))):
        period = draw(st.integers(2, 40))
        lo = draw(st.integers(-100, 100))
        cyclic[f"c{k}"] = (period, (lo, lo + draw(st.integers(1, period - 1))))
    return scales, base, explicit, cyclic


def build(scales, base, explicit, cyclic):
    new, old = FluentStore(scales, base), ref.ReferenceStore(scales, base)
    for name, (domain, ranges) in explicit.items():
        new.assign(name, domain, ranges)
        old.assign(name, domain, ranges)
    for name, (period, phase) in cyclic.items():
        new.cyclic_fluent(name, period, phase)
        old.cyclic_fluent(name, period, phase)
    return new, old


fraction_thetas = st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=50).filter(
    lambda f: f > Fraction(1, 2)
)
# ``evaluate`` converts theta only when it is not a Fraction already, and
# decides preponderance on its numerator and denominator; each form of theta,
# and values just outside (1/2, 1], must behave as the Fraction arithmetic does
thetas = st.one_of(
    fraction_thetas,
    st.floats(min_value=0.45, max_value=1.05),
    st.sampled_from((0.7, 0.5, 1.1, 1, 2, 0, True)),
    fraction_thetas.map(str),
    st.sampled_from(("2/3", "0.75", "1", "1/2", "3/2", "0.5000001")),
)
queries = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(-6, 6),
        st.sampled_from(MODES),
        thetas,
    ),
    min_size=1,
    max_size=30,
)


@DIFFERENTIAL
@given(stores(), queries, st.data())
def test_evaluate_matches_reference(spec, query_list, data):
    new, old = build(*spec)
    names = sorted(set(spec[2]) | set(spec[3])) + ["missing"]
    for scale, index, mode, theta in query_list:
        name = data.draw(st.sampled_from(names))
        at = TimePoint(scale, index)
        assert outcome(lambda: evaluate(new, name, at, mode, theta)) == outcome(
            lambda: ref.evaluate(old, name, at, mode, theta)
        ), (name, at, mode, theta)


def reference_runs(old, name, start, stop):
    values = old.window_values(name, start, stop)
    return ref._longest_run(values, True), ref._longest_run(values, False)


@DIFFERENTIAL
@given(stores())
def test_values_and_windows_match_reference(spec):
    """Unit by unit, and on every window of a sweep that starts before each
    explicit domain and ends after it."""
    new, old = build(*spec)
    for name in new.names():
        if name in spec[2]:
            (start, stop), _ = spec[2][name]
        else:
            start, stop = -2 * spec[3][name][0], 2 * spec[3][name][0]
        for index in range(start - 3, stop + 3):
            assert outcome(lambda: new.value_at(name, index)) == outcome(
                lambda: old.value_at(name, index)
            )
        for lo in range(start - 3, stop + 3, 3):
            for hi in range(lo + 1, stop + 4, 4):
                assert outcome(lambda: new.longest_runs(name, lo, hi)) == outcome(
                    lambda: reference_runs(old, name, lo, hi)
                ), (name, lo, hi)


@DIFFERENTIAL
@given(
    st.integers(-60, 60),
    st.integers(1, 60),
    st.lists(st.tuples(st.integers(-80, 80), st.integers(-80, 80)), max_size=6),
)
def test_install_errors_match_reference(start, length, ranges):
    """Ranges that escape the domain are refused with the same message;
    empty ranges are ignored wherever they lie inside it."""
    scales = ScaleSystem(min_scale=0, max_scale=1, factors=((1, 4),))
    domain = (start, start + length)
    new, old = FluentStore(scales, 0), ref.ReferenceStore(scales, 0)
    assert outcome(lambda: new.assign("p", domain, ranges)) == outcome(
        lambda: old.assign("p", domain, ranges)
    )


# scale -> how many units of the scale below one of its units holds
NAIVE_FACTORS = dict(ScaleSystem.naive().factors)
WINDOW_CAP = 1000  # the reference lists every unit of a window


@DIFFERENTIAL
@given(st.integers(-1, 5), st.data())
def test_naive_scales_and_theta_forms_match_reference(base, data):
    """Every naive scale is a window scale for some base; each store caches
    one width per scale, so repeated and interleaved scales must keep their
    own width, as must a second store over the same system."""
    scales = ScaleSystem.naive()
    widths = {base: 1}  # scale -> base units in one of its units
    for scale in range(base + 1, scales.max_scale + 1):
        width = widths[scale - 1] * NAIVE_FACTORS[scale]
        if width > WINDOW_CAP:
            break
        widths[scale] = width
    # windows at indices -4..3 of the widest scale run off both domain ends
    span = 3 * max(widths.values())
    lows = data.draw(st.lists(st.integers(-span, span), max_size=8))
    ranges = [(lo, min(span, lo + data.draw(st.integers(0, span // 2)))) for lo in lows]
    period = data.draw(st.integers(2, 2 * WINDOW_CAP))
    phase = data.draw(st.integers(0, period - 1))
    explicit = {"e": ((-span, span), ranges)}
    cyclic = {"c": (period, (phase, phase + data.draw(st.integers(1, period - 1))))}
    stores = [build(scales, base, explicit, cyclic) for _ in range(2)]
    # a scale below the base and one past the system are errors at every theta
    query_scales = st.sampled_from(list(widths) + [base - 1, scales.max_scale + 1])
    for _ in range(data.draw(st.integers(1, 30))):
        new, old = stores[data.draw(st.integers(0, 1))]
        name = data.draw(st.sampled_from(("e", "c")))
        at = TimePoint(data.draw(query_scales), data.draw(st.integers(-4, 3)))
        mode = data.draw(st.sampled_from(MODES))
        theta = data.draw(thetas)
        assert outcome(lambda: evaluate(new, name, at, mode, theta)) == outcome(
            lambda: ref.evaluate(old, name, at, mode, theta)
        ), (name, at, mode, theta)


@pytest.mark.parametrize(
    "theta, shown",
    [
        (Fraction(1, 2), "1/2"),
        (Fraction(3, 2), "3/2"),
        (1.1, "2476979795053773/2251799813685248"),
        ("3/2", "3/2"),
        (0, "0"),
    ],
)
def test_theta_bound_message_is_unchanged(theta, shown):
    store = FluentStore(ScaleSystem.naive(), 0)
    store.assign("p", (0, 100), [(0, 70)])
    message = f"theta must lie in (1/2, 1], got {shown}"
    assert outcome(lambda: evaluate(store, "p", TimePoint(0, 0), "forall", theta)) == (
        InputDomainError, message
    )
