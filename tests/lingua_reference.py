"""Reference island parser for differential tests.

This is the parser as it was before the single agenda pass: a fixed-point
loop that, every round, regroups the whole chart by start position, lays
every pattern over every tiling of adjacent items and deep-hashes each
candidate against the chart, stopping when a round adds nothing.  Survivors
are the tops (unconsumed items other than covered leaves) and everything
reached from them by a stack walk.  ``test_lingua_differential`` checks
``cmoore.lingua.parse`` against it.
"""
from __future__ import annotations

from typing import Sequence

from cmoore.errors import InputDomainError
from cmoore.lingua import (
    Lexicon,
    ParseItem,
    ParseResult,
    PatternSet,
    demo_lexicon,
    demo_patterns,
)


def parse(
    sentence: str | Sequence[str],
    lexicon: Lexicon | None = None,
    patterns: PatternSet | None = None,
) -> ParseResult:
    """Bottom-up island parse of a sentence.

    Every lexical reading seeds the chart; patterns close it under
    combination; leaf readings never consumed by a completed pattern, yet
    covered by some completed constituent, get no reinforcement and die out.
    The closure is a fixed point, so agenda order cannot matter.
    """
    lexicon = lexicon or demo_lexicon()
    patterns = patterns or demo_patterns()
    words = tuple(sentence.split()) if isinstance(sentence, str) else tuple(sentence)
    if not words:
        raise InputDomainError("nothing to parse")
    chart: set[ParseItem] = set()
    for position, word in enumerate(words):
        lemma, features = lexicon.analyze(word)
        for entry in lexicon.entries(lemma):
            chart.add(
                ParseItem(
                    position,
                    position + 1,
                    entry.category,
                    entry.senses,
                    (),
                    lemma,
                    features,
                )
            )
    changed = True
    while changed:
        changed = False
        by_start: dict[int, list[ParseItem]] = {}
        for item in chart:
            by_start.setdefault(item.start, []).append(item)
        fresh: list[ParseItem] = []
        for pattern in patterns.patterns:
            for children in _tilings(by_start, pattern.sequence, len(words)):
                head = children[pattern.head_index]
                candidate = ParseItem(
                    children[0].start,
                    children[-1].end,
                    pattern.result,
                    head.senses,
                    children,
                )
                if candidate not in chart:
                    fresh.append(candidate)
        if fresh:
            chart.update(fresh)
            changed = True
    surviving = _survivors(chart)
    ordered_chart = tuple(sorted(chart, key=sort_key))
    ordered_items = tuple(sorted(surviving, key=sort_key))
    full = tuple(
        item for item in ordered_items if item.start == 0 and item.end == len(words)
    )
    return ParseResult(words, ordered_chart, ordered_items, full)


def sort_key(item: ParseItem):
    """The parse order, derived from the item's fields and its children's
    keys on every call; ``ParseItem._key`` caches the same tuple."""
    return (
        item.start,
        item.end,
        item.category,
        item.lemma,
        item.senses,
        tuple(sort_key(child) for child in item.children),
    )


def _tilings(by_start, sequence, limit):
    """All ways to lay the category sequence over adjacent chart items."""

    def extend(prefix, position, remaining):
        if not remaining:
            yield tuple(prefix)
            return
        for item in by_start.get(position, ()):
            if item.category == remaining[0] and item.end <= limit:
                yield from extend(prefix + [item], item.end, remaining[1:])

    for start in by_start:
        yield from extend([], start, tuple(sequence))


def _survivors(chart: set[ParseItem]) -> set[ParseItem]:
    consumed = {child for item in chart for child in item.children}
    phrases = [item for item in chart if item.children]
    tops = []
    for item in chart:
        if item in consumed:
            continue
        if item.is_leaf and any(
            phrase.start <= item.start and item.end <= phrase.end for phrase in phrases
        ):
            continue  # an unreinforced reading under a built island dies out
        tops.append(item)
    surviving: set[ParseItem] = set()
    stack = list(tops)
    while stack:
        item = stack.pop()
        if item in surviving:
            continue
        surviving.add(item)
        stack.extend(item.children)
    return surviving
