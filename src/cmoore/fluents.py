"""Two-index instants and fluent truth across timescales.

A fluent is assigned at one base scale and queried upward.  Three semantics
are supported: universal (every base unit in the window is true), existential
(some unit is), and preponderance (a single contiguous run of one truth
value fills at least a supermajority share theta of the window).  Windows
where neither value preponderates are transition units and evaluate to
Undefined; that is the only source of Undefined.  Cyclic fluents (day/night
and friends) are assignments by congruence and never run out of domain.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputDomainError, UnassignedWindowError
from .timescales import ScaleSystem

DEFAULT_THETA = Fraction(2, 3)


class Truth(Enum):
    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"

    @classmethod
    def of(cls, flag: bool) -> "Truth":
        return cls.TRUE if flag else cls.FALSE


@dataclass(frozen=True)
class TimePoint:
    """Unit ``index`` on timescale ``scale``; negative indices are the past,
    zero is now."""

    scale: int
    index: int

    def __str__(self):
        return f"{self.scale}.{self.index}"

    @classmethod
    def parse(cls, text: str) -> "TimePoint":
        scale_part, _, index_part = text.partition(".")
        try:
            return cls(int(scale_part), int(index_part))
        except ValueError:
            raise InputDomainError(f"bad time point {text!r}; expected scale.index") from None


def contains(outer: TimePoint, inner: TimePoint, scales: ScaleSystem) -> bool:
    """Whether the inner instant falls inside the outer unit's window.

    Unit (i, k) covers the half-open block of scale-j indices
    [k*B, (k+1)*B) where B multiplies the branching factors between the two
    scales; blocks at one scale partition every finer scale.
    """
    if inner.scale >= outer.scale:
        raise InputDomainError(
            f"containment needs inner.scale < outer.scale, got {inner.scale} >= {outer.scale}"
        )
    for point in (outer, inner):
        if not scales.min_scale <= point.scale <= scales.max_scale:
            raise InputDomainError(f"scale {point.scale} outside the scale system")
    width = scales.units(outer.scale, inner.scale)
    return inner.index // width == outer.index


def _is_int(value) -> bool:
    """Whether a value may serve as an index; bools and floats may not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_pair(pair, what: str) -> tuple[int, int]:
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        raise InputDomainError(f"{what} must be a pair of integers, got {pair!r}") from None
    if not (_is_int(lo) and _is_int(hi)):
        raise InputDomainError(f"{what} must be a pair of integers, got {pair!r}")
    return lo, hi


def _periodic_run(offset: int, span: int, period: int, start: int, stop: int) -> int:
    """Longest overlap of the runs [offset + k*period, +span) with [start, stop).

    Only the run that begins at or before ``start`` and the next one can
    matter: if the next one fits whole, nothing is longer, and if it is cut
    by ``stop``, every later run begins at or after ``stop``.
    """
    first = start - (start - offset) % period
    best = max(0, min(stop, first + span) - start)
    following = first + period
    return max(best, min(span, stop - following))


class FluentStore:
    """Truth assignments of named fluents at one base scale.

    Explicit fluents are total over a declared domain of base indices and
    stored as sorted, disjoint, non-touching true intervals; cyclic fluents
    are true exactly on a congruence class of indices.  Queries above the
    base scale are always derived, never stored, and cost nothing per unit
    of the window.  Installation must be serialized externally; evaluation
    is pure.
    """

    def __init__(self, scales: ScaleSystem | None = None, base_scale: int | None = None):
        self.scales = scales or ScaleSystem.modern()
        self.base_scale = self.scales.min_scale if base_scale is None else base_scale
        if not self.scales.min_scale <= self.base_scale <= self.scales.max_scale:
            raise InputDomainError(f"base scale {self.base_scale} outside the scale system")
        # name -> (domain start, domain stop, interval starts, interval stops)
        self._explicit: dict[str, tuple[int, int, list[int], list[int]]] = {}
        self._cyclic: dict[str, tuple[int, int, int]] = {}

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._explicit) | set(self._cyclic)))

    def assign(self, name: str, domain: tuple[int, int], true_ranges: Sequence[tuple[int, int]]):
        """Install an explicit fluent, total over [domain), true on the given
        half-open ranges; empty ranges are ignored, overlapping or touching
        ones merged."""
        if name in self._explicit or name in self._cyclic:
            raise InputDomainError(f"fluent {name!r} is already defined")
        domain = start, stop = _int_pair(domain, "a domain")
        if start >= stop:
            raise InputDomainError(f"empty domain {domain!r}")
        ranges = []
        for pair in true_ranges:
            lo, hi = _int_pair(pair, "a true range")
            if lo < start or hi > stop:
                raise InputDomainError(f"true range [{lo}, {hi}) escapes the domain {domain!r}")
            if lo < hi:
                ranges.append((lo, hi))
        ranges.sort()
        los: list[int] = []
        his: list[int] = []
        for lo, hi in ranges:
            if his and lo <= his[-1]:
                his[-1] = max(his[-1], hi)
            else:
                los.append(lo)
                his.append(hi)
        self._explicit[name] = (start, stop, los, his)

    def cyclic_fluent(self, name: str, period: int, phase_true: tuple[int, int]):
        """Install a fluent true exactly on indices congruent to the phase
        range mod the period.

        The range is half-open and may wrap (e.g. night as the complement of
        a daytime phase); it must be non-empty and shorter than the period.
        """
        if name in self._explicit or name in self._cyclic:
            raise InputDomainError(f"fluent {name!r} is already defined")
        if not _is_int(period):
            raise InputDomainError(f"period must be an integer, got {period!r}")
        if period < 2:
            raise InputDomainError(f"period must be >= 2, got {period}")
        lo, hi = _int_pair(phase_true, "a phase range")
        span = hi - lo
        if not 0 < span < period:
            raise InputDomainError(
                f"phase range [{lo}, {hi}) must be non-empty and shorter than the period {period}"
            )
        self._cyclic[name] = (period, lo % period, span)

    def value_at(self, name: str, base_index: int) -> bool:
        return self.longest_runs(name, base_index, base_index + 1)[0] == 1

    def longest_runs(self, name: str, start: int, stop: int) -> tuple[int, int]:
        """Longest run of true and of false base units in [start, stop)."""
        if name in self._cyclic:
            period, lo, span = self._cyclic[name]
            return (
                _periodic_run(lo, span, period, start, stop),
                _periodic_run(lo + span, period - span, period, start, stop),
            )
        if name not in self._explicit:
            raise InputDomainError(f"unknown fluent {name!r}")
        first, last, los, his = self._explicit[name]
        if start < first or stop > last:
            outside = start if start < first else max(start, last)
            raise UnassignedWindowError(
                f"{name!r} is unassigned at base index {outside} (domain [{first}, {last}))"
            )
        longest_true = longest_false = 0
        cursor = start  # first unit not yet accounted for
        k = bisect_right(his, start)  # first interval ending after start
        while k < len(los) and los[k] < stop:
            lo, hi = max(los[k], start), min(his[k], stop)
            longest_true = max(longest_true, hi - lo)
            longest_false = max(longest_false, lo - cursor)
            cursor = hi
            k += 1
        return longest_true, max(longest_false, stop - cursor)


def evaluate(
    store: FluentStore,
    name: str,
    at: TimePoint,
    mode: str = "preponderant",
    theta: Fraction = DEFAULT_THETA,
) -> Truth:
    """Truth of a fluent at an instant, derived from its base-scale window.

    forall and exists are two-valued.  preponderant is True when some
    contiguous run of true base units reaches theta times the window size,
    False when a false run does, and Undefined otherwise; theta must exceed
    one half, which is what makes True for both a fluent and its complement
    impossible on the same window.  At the base scale all modes agree with
    the stored value.
    """
    if mode not in ("forall", "exists", "preponderant"):
        raise InputDomainError(f"unknown mode {mode!r}")
    theta = Fraction(theta)
    if not Fraction(1, 2) < theta <= 1:
        raise InputDomainError(f"theta must lie in (1/2, 1], got {theta}")
    if at.scale < store.base_scale:
        raise InputDomainError(
            f"cannot evaluate below the base scale {store.base_scale}"
        )
    if at.scale > store.scales.max_scale:
        raise InputDomainError(f"scale {at.scale} outside the scale system")
    width = store.scales.units(at.scale, store.base_scale)
    start = at.index * width
    longest_true, longest_false = store.longest_runs(name, start, start + width)
    if mode == "forall":
        return Truth.of(longest_false == 0)
    if mode == "exists":
        return Truth.of(longest_true > 0)
    threshold = theta * width
    if longest_true >= threshold:
        return Truth.TRUE
    if longest_false >= threshold:
        return Truth.FALSE
    return Truth.UNDEFINED


# Schema machines carry their participant facts as fluent annotations rather
# than Moore outputs; the truth tables below are what those machines assert
# at each of their states.  Possession is underspecified mid-exchange.
_T, _F, _U = Truth.TRUE, Truth.FALSE, Truth.UNDEFINED

SCHEMA_FLUENTS: dict[str, dict[str, dict[str, Truth]]] = {
    "exchange": {
        "b": {
            "has(seller,goods)": _T,
            "has(buyer,money)": _T,
            "has(seller,money)": _F,
            "has(buyer,goods)": _F,
        },
        "mid": {
            "has(seller,goods)": _U,
            "has(buyer,money)": _U,
            "has(seller,money)": _U,
            "has(buyer,goods)": _U,
        },
        "a": {
            "has(seller,goods)": _F,
            "has(buyer,money)": _F,
            "has(seller,money)": _T,
            "has(buyer,goods)": _T,
        },
    },
    "gravity": {
        "rest": {"supported": _T, "falling": _F},
        "falling": {"supported": _F, "falling": _T},
    },
}


def evaluate_schema(schema: str) -> dict[str, dict[str, Truth]]:
    """Per-state fluent report for a schema machine."""
    try:
        return SCHEMA_FLUENTS[schema]
    except KeyError:
        raise InputDomainError(
            f"unknown schema {schema!r}; expected one of {tuple(SCHEMA_FLUENTS)}"
        ) from None


def load_store(doc: Mapping | str, scales: ScaleSystem | None = None) -> FluentStore:
    """Build a store from its JSON document form.

    The document maps explicit fluents to a domain plus true ranges, and
    cyclic fluents to a period plus phase range::

        {"base_scale": 0,
         "fluents": {"rain": {"domain": [0, 1000], "true": [[0, 501]]}},
         "cyclic": {"day": {"period": 96, "phase": [24, 72]}}}
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputDomainError(f"malformed store document: {exc}") from exc
    doc = _object(doc, "a store document")
    base_scale = doc.get("base_scale")
    if base_scale is not None and not _is_int(base_scale):
        raise InputDomainError(f"base_scale must be an integer, got {base_scale!r}")
    scales = scales or (
        ScaleSystem.naive() if doc.get("scale_system") == "naive" else ScaleSystem.modern()
    )
    store = FluentStore(scales, base_scale)
    for name, spec in _object(doc.get("fluents", {}), "'fluents'").items():
        spec = _object(spec, f"fluent {name!r}")
        true_ranges = spec.get("true", [])
        if not isinstance(true_ranges, list):
            raise InputDomainError(f"fluent {name!r}: 'true' must be a list of ranges")
        store.assign(name, _field(spec, "domain", name), true_ranges)
    for name, spec in _object(doc.get("cyclic", {}), "'cyclic'").items():
        spec = _object(spec, f"cyclic fluent {name!r}")
        store.cyclic_fluent(name, _field(spec, "period", name), _field(spec, "phase", name))
    return store


def _object(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputDomainError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _field(spec: Mapping, key: str, name: str):
    try:
        return spec[key]
    except KeyError:
        raise InputDomainError(f"fluent {name!r} has no {key!r}") from None
