"""Reference fluent semantics for differential tests.

This is the original list-based evaluator: an explicit fluent keeps the set
of its true base indices, and a query builds the list of every value in its
window and scans it for runs.  It costs time and memory in proportion to
the window, but it is written straight from the definitions, so the
interval store and closed forms in ``cmoore.fluents`` are checked against
it on small windows.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from cmoore.cluster import ScaleSystem
from cmoore.errors import InputDomainError, UnassignedWindowError
from cmoore.fluents import DEFAULT_THETA, TimePoint, Truth


class ReferenceStore:
    def __init__(self, scales: ScaleSystem, base_scale: int):
        self.scales = scales
        self.base_scale = base_scale
        self._explicit: dict[str, tuple[int, int, set[int]]] = {}
        self._cyclic: dict[str, tuple[int, int, int]] = {}

    def assign(self, name: str, domain: tuple[int, int], true_ranges: Sequence[tuple[int, int]]):
        start, stop = domain
        true_set: set[int] = set()
        for lo, hi in true_ranges:
            if lo < start or hi > stop:
                raise InputDomainError(f"true range [{lo}, {hi}) escapes the domain {domain!r}")
            true_set.update(range(lo, hi))
        self._explicit[name] = (start, stop, true_set)

    def cyclic_fluent(self, name: str, period: int, phase_true: tuple[int, int]):
        lo, hi = phase_true
        self._cyclic[name] = (period, lo % period, hi - lo)

    def value_at(self, name: str, base_index: int) -> bool:
        if name in self._cyclic:
            period, lo, span = self._cyclic[name]
            return (base_index - lo) % period < span
        if name in self._explicit:
            start, stop, true_set = self._explicit[name]
            if not start <= base_index < stop:
                raise UnassignedWindowError(
                    f"{name!r} is unassigned at base index {base_index} "
                    f"(domain [{start}, {stop}))"
                )
            return base_index in true_set
        raise InputDomainError(f"unknown fluent {name!r}")

    def window_values(self, name: str, start: int, stop: int) -> list[bool]:
        return [self.value_at(name, i) for i in range(start, stop)]


def _longest_run(values: Sequence[bool], wanted: bool) -> int:
    best = run = 0
    for value in values:
        if value == wanted:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def evaluate(
    store: ReferenceStore,
    name: str,
    at: TimePoint,
    mode: str = "preponderant",
    theta: Fraction = DEFAULT_THETA,
) -> Truth:
    if mode not in ("forall", "exists", "preponderant"):
        raise InputDomainError(f"unknown mode {mode!r}")
    theta = Fraction(theta)
    if not Fraction(1, 2) < theta <= 1:
        raise InputDomainError(f"theta must lie in (1/2, 1], got {theta}")
    if at.scale < store.base_scale:
        raise InputDomainError(f"cannot evaluate below the base scale {store.base_scale}")
    if at.scale > store.scales.max_scale:
        raise InputDomainError(f"scale {at.scale} outside the scale system")
    width = store.scales.units(at.scale, store.base_scale)
    start = at.index * width
    values = store.window_values(name, start, start + width)
    if mode == "forall":
        return Truth.of(all(values))
    if mode == "exists":
        return Truth.of(any(values))
    threshold = theta * len(values)
    if _longest_run(values, True) >= threshold:
        return Truth.TRUE
    if _longest_run(values, False) >= threshold:
        return Truth.FALSE
    return Truth.UNDEFINED
