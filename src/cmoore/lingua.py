"""Tense-to-scale mapping, spreading activation, and island parsing.

The activation network runs threshold-2 synapses: a node needs two impulses
to reach its transmitting phase, fires once, then sits out a refractory
step.  Impulses landing within one step are applied as distinct events
against a consistent snapshot, so two simultaneous impulses take a resting
node all the way to transmit.

The parser is bottom-up deductive parsing with an agenda: lexical readings
seed the chart one word at a time, and each new item is combined once, as
the last child of every chain pattern that ends in its category.  Unary
patterns may not form a cycle, so the chart is finite.  Readings that no
completed pattern ever touches die out.  Ambiguous sense sets ride along on
items instead of multiplying the forest.  ``load_grammar`` and
``load_network`` read the JSON documents, under ``machine``'s string rules.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import BudgetError, ContradictionError, InputDomainError
from .fluents import TimePoint
from .machine import _read_json, _rows, _text, _texts

PARSE_ITEM_LIMIT = 300_000


@dataclass(frozen=True)
class TenseMap:
    """Tense labels resolved to (timescale, temporal direction)."""

    name: str
    entries: tuple[tuple[str, int], ...]
    direction: int  # -1 for pasts, +1 for futures

    @classmethod
    def tamil_past(cls) -> "TenseMap":
        """Immediate/recent/remote/historical pasts on the heartbeat,
        quarter-hour, day, and generation scales."""
        return cls(
            "tamil-past",
            (("immediate", 0), ("recent", 1), ("remote", 2), ("historical", 4)),
            -1,
        )

    @classmethod
    def scalar_future(cls) -> "TenseMap":
        """Immediate/near/distant/hypothetical futures; the hypothetical
        future sits on the slowest (aeon) scale."""
        return cls(
            "scalar-future",
            (("immediate", 0), ("near", 1), ("distant", 2), ("hypothetical", 5)),
            +1,
        )

    def scale_of(self, label: str) -> int:
        mapping = dict(self.entries)
        try:
            return mapping[label]
        except KeyError:
            raise InputDomainError(
                f"unknown tense label {label!r} in {self.name}; "
                f"known: {tuple(mapping)}"
            ) from None


def tense_locate(label: str, tenses: TenseMap, k: int = 1) -> TimePoint:
    """The instant a tensed event sits at: a few units into the past or
    future on the tense's scale."""
    if k < 1:
        raise InputDomainError(f"k must be >= 1, got {k}")
    return TimePoint(tenses.scale_of(label), tenses.direction * k)


class Phase(Enum):
    REST = "r"
    AROUSED = "a"
    TRANSMIT = "t"
    BLOCKED = "b"


@dataclass(frozen=True)
class ActivationNetwork:
    """Named threshold-2 synapses joined by directed links.

    Impulses travel along ``edges`` only.  ``static_links`` carries
    relational background facts (parentOf and the like) as (subject,
    relation, object) triples; nothing compiles edges from them, so a fact
    that should carry activation needs an edge of its own.
    """

    phases: tuple[tuple[str, Phase], ...]
    edges: tuple[tuple[str, str], ...]
    static_links: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        known = {name for name, _ in self.phases}
        if len(known) != len(self.phases):
            raise ValueError("duplicate node names")
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src!r}, {dst!r}) touches an unknown node")

    @classmethod
    def build(
        cls,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        static_links: Iterable[tuple[str, str, str]] = (),
    ) -> "ActivationNetwork":
        return cls(
            tuple((name, Phase.REST) for name in nodes),
            tuple(edges),
            tuple(tuple(link) for link in static_links),
        )

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.phases)

    def phase_of(self, node: str) -> Phase:
        return _phase_in(dict(self.phases), node)

    def _with_phases(self, mapping: Mapping[str, Phase]) -> "ActivationNetwork":
        """This network with the phases of ``mapping``, which holds this
        network's names in their order; the names and edges are unchanged, so
        nothing ``__post_init__`` checks needs checking again."""
        net = object.__new__(type(self))
        object.__setattr__(net, "phases", tuple(mapping.items()))
        object.__setattr__(net, "edges", self.edges)
        object.__setattr__(net, "static_links", self.static_links)
        return net


def _phase_in(mapping: Mapping[str, Phase], node: str) -> Phase:
    try:
        return mapping[node]
    except KeyError:
        raise InputDomainError(f"unknown node {node!r}") from None


def _bump(phase: Phase, impulses: int) -> Phase:
    """Impulse arithmetic for one node: rest needs two impulses to transmit,
    aroused needs one; transmitting and blocked nodes ignore impulses."""
    if phase == Phase.REST:
        if impulses >= 2:
            return Phase.TRANSMIT
        if impulses == 1:
            return Phase.AROUSED
        return Phase.REST
    if phase == Phase.AROUSED:
        return Phase.TRANSMIT if impulses >= 1 else Phase.AROUSED
    return phase


def inject(net: ActivationNetwork, node: str) -> ActivationNetwork:
    """Deliver one external impulse to a node."""
    mapping = dict(net.phases)
    mapping[node] = _bump(_phase_in(mapping, node), 1)
    return net._with_phases(mapping)


def step_network(net: ActivationNetwork) -> tuple[ActivationNetwork, frozenset[str]]:
    """One synchronous step: transmitting nodes fire along all outgoing
    edges, then block; blocked nodes recover to rest; impulses are counted
    against the pre-step configuration."""
    before = dict(net.phases)
    firing = frozenset(name for name, phase in before.items() if phase == Phase.TRANSMIT)
    impulses: dict[str, int] = {}
    for src, dst in net.edges:
        if src in firing:
            impulses[dst] = impulses.get(dst, 0) + 1
    after = {}
    for name, phase in before.items():
        if phase == Phase.TRANSMIT:
            after[name] = Phase.BLOCKED
        elif phase == Phase.BLOCKED:
            after[name] = Phase.REST
        else:
            after[name] = _bump(phase, impulses.get(name, 0))
    return net._with_phases(after), firing


def grief_demo_network(parent: str = "x", child: str = "y", parent_knows: bool = True) -> ActivationNetwork:
    """The kinship-grief law as a network: a death event activates both the
    death concept and its subject; the parent's grief node fires only when
    doubly reached, via the death association and via the known child."""
    death = f"death({child})"
    grief = f"grief({parent})"
    edges = [(death, grief)]
    if parent_knows:
        edges.append((child, grief))
    return ActivationNetwork.build(
        (death, child, grief),
        edges,
        ((parent, "parentOf", child), ("grief", "isA", "emotionalState")),
    )


@dataclass(frozen=True)
class LexEntry:
    category: str
    senses: tuple[str, ...]

    def __post_init__(self):
        if not self.senses:
            raise ValueError("a lexical entry needs at least one sense")


@dataclass(frozen=True)
class Lexicon:
    """Word lookup plus a small pluggable morphology table."""

    words: tuple[tuple[str, tuple[LexEntry, ...]], ...]
    morphology: tuple[tuple[str, tuple[str, tuple[str, ...]]], ...] = ()

    @classmethod
    def make(
        cls,
        words: Mapping[str, Sequence[tuple[str, Sequence[str]]]],
        morphology: Mapping[str, tuple[str, Sequence[str]]] | None = None,
    ) -> "Lexicon":
        packed = tuple(
            (word, tuple(LexEntry(cat, _texts(senses, "senses")) for cat, senses in entries))
            for word, entries in words.items()
        )
        morph = tuple(
            (form, (lemma, _texts(features, "features")))
            for form, (lemma, features) in (morphology or {}).items()
        )
        return cls(packed, morph)

    def analyze(self, word: str) -> tuple[str, tuple[str, ...]]:
        """Morphology hook: surface form to (lemma, features)."""
        return dict(self.morphology).get(word, (word, ()))

    def entries(self, lemma: str) -> tuple[LexEntry, ...]:
        mapping = dict(self.words)
        try:
            return mapping[lemma]
        except KeyError:
            raise InputDomainError(f"unknown word {lemma!r}") from None


@dataclass(frozen=True)
class Pattern:
    """A chain over category signals that emits a result category.

    Chains stay short (at most three consumed signals); ``head`` says which
    child's sense set the result carries.
    """

    sequence: tuple[str, ...]
    result: str
    head: int | None = None

    def __post_init__(self):
        if not 1 <= len(self.sequence) <= 3:
            raise ValueError("pattern chains consume one to three signals")
        if self.head is not None and not (
            type(self.head) is int and 0 <= self.head < len(self.sequence)
        ):
            raise ValueError(f"pattern head must index the sequence, got {self.head!r}")

    @property
    def head_index(self) -> int:
        return self.head if self.head is not None else len(self.sequence) - 1


@dataclass(frozen=True)
class PatternSet:
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        # longer patterns widen the span, so only a unary cycle lets the chart grow forever
        unary = TopologicalSorter()
        for pattern in self.patterns:
            if len(pattern.sequence) == 1:
                unary.add(pattern.result, pattern.sequence[0])
        try:
            unary.prepare()
        except CycleError as exc:
            raise ValueError(f"unary patterns form a cycle: {' -> '.join(exc.args[1])}") from None

    @classmethod
    def make(cls, specs: Iterable[tuple]) -> "PatternSet":
        return cls(tuple(
            Pattern(_texts(spec[0], "a pattern sequence"), spec[1], *spec[2:3]) for spec in specs
        ))


@dataclass(frozen=True)
class ParseItem:
    """A constituent over a half-open word span.

    Children tile the span exactly; leaves carry their lemma and features,
    and an item's sense set is its head child's (so lexical ambiguity rides
    upward without multiplying trees).
    """

    start: int
    end: int
    category: str
    senses: tuple[str, ...]
    children: tuple["ParseItem", ...] = ()
    lemma: str = ""
    features: tuple[str, ...] = ()

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("an item needs a non-empty span")
        if self.children:
            cursor = self.start
            for child in self.children:
                if child.start != cursor:
                    raise ValueError("children must tile the span contiguously")
                cursor = child.end
            if cursor != self.end:
                raise ValueError("children must cover the span exactly")
        # The chart looks items up by hash and sorts them by key; the
        # children's are cached already, so each costs time linear in the
        # item's own fields only.
        fields = (self.start, self.end, self.category, self.senses, self.children)
        object.__setattr__(self, "_hash", hash(fields + (self.lemma, self.features)))
        object.__setattr__(self, "_key", (
            self.start, self.end, self.category, self.lemma, self.senses,
            tuple(child._key for child in self.children),
        ))

    def __hash__(self):
        return self._hash

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> tuple["ParseItem", ...]:
        if self.is_leaf:
            return (self,)
        return tuple(leaf for child in self.children for leaf in child.leaves())

    def bracket(self) -> str:
        if self.is_leaf:
            core = self.lemma
            if self.features:
                core += "." + ".".join(self.features)
            if len(self.senses) > 1:
                core += "{" + "|".join(self.senses) + "}"
            return f"({self.category} {core})"
        inside = " ".join(child.bracket() for child in self.children)
        return f"({self.category} {inside})"


@dataclass(frozen=True)
class ParseResult:
    """Everything derived plus what survived.

    ``chart`` holds every item ever built; ``items`` the surviving islands
    and their parts after unsupported readings die out; ``full`` the
    surviving items covering the whole sentence (empty means a
    partial-islands result, which is not an error).
    """

    words: tuple[str, ...]
    chart: tuple[ParseItem, ...]
    items: tuple[ParseItem, ...]
    full: tuple[ParseItem, ...]

    def islands(self) -> tuple[ParseItem, ...]:
        """The maximal surviving items (no surviving parent)."""
        consumed = {
            child for item in self.items for child in item.children
        }
        return tuple(item for item in self.items if item not in consumed)


def parse(
    sentence: str | Sequence[str],
    lexicon: Lexicon | None = None,
    patterns: PatternSet | None = None,
) -> ParseResult:
    """Bottom-up island parse of a sentence.

    Every lexical reading seeds the chart, one end position at a time.  An
    item entering the chart is combined once, as the last child of each
    pattern whose last category it carries; its prefixes end where it
    starts, so they are already complete.  The chart is finite because
    ``PatternSet`` rejects unary cycles and every longer pattern widens the
    span.  Leaf readings never consumed by a completed pattern, yet covered
    by some completed constituent, get no reinforcement and die out.  A
    highly ambiguous grammar builds a chart exponential in the sentence
    length, so more than ``PARSE_ITEM_LIMIT`` items pushed onto the agenda
    raise ``BudgetError``.  A parse just under the limit takes about 11 s:
    "the man saw the duck" and ten times "with the park" builds 208,563
    items (Intel Xeon, 2 vCPU, Python 3.11).
    """
    lexicon = lexicon or demo_lexicon()
    patterns = patterns or demo_patterns()
    words = tuple(sentence.split()) if isinstance(sentence, str) else tuple(sentence)
    if not words:
        raise InputDomainError("nothing to parse")
    chart: set[ParseItem] = set()
    by_end: list[list[ParseItem]] = [[]]
    pushed = 0
    for position, word in enumerate(words):
        lemma, features = lexicon.analyze(word)
        agenda = [
            ParseItem(position, position + 1, entry.category, entry.senses, (), lemma, features)
            for entry in lexicon.entries(lemma)
        ]
        by_end.append([])
        pushed += len(agenda)
        while agenda:
            item = agenda.pop()
            if item in chart:
                continue
            chart.add(item)
            by_end[-1].append(item)
            for pattern in patterns.patterns:
                if pattern.sequence[-1] != item.category:
                    continue
                for prefix in _prefixes(by_end, pattern.sequence[:-1], item.start):
                    children = prefix + (item,)
                    senses = children[pattern.head_index].senses
                    agenda.append(
                        ParseItem(children[0].start, item.end, pattern.result, senses, children)
                    )
                    pushed += 1
                    if pushed > PARSE_ITEM_LIMIT:
                        raise BudgetError(
                            f"parsing {len(words)} words pushed more than"
                            f" {PARSE_ITEM_LIMIT} items onto the agenda",
                            used=pushed,
                            limit=PARSE_ITEM_LIMIT,
                        )
    ordered_chart = tuple(sorted(chart, key=attrgetter("_key")))
    phrases = [item for item in ordered_chart if item.children]
    consumed = {child for phrase in phrases for child in phrase.children if child.is_leaf}
    # a leaf reading no phrase consumes, inside a built island, dies out
    ordered_items = tuple(
        item
        for item in ordered_chart
        if item.children
        or item in consumed
        or not any(p.start <= item.start and item.end <= p.end for p in phrases)
    )
    full = tuple(item for item in ordered_items if item.span == (0, len(words)))
    return ParseResult(words, ordered_chart, ordered_items, full)


def _prefixes(by_end, categories, end):
    """All runs of adjacent chart items carrying ``categories`` that end at ``end``."""
    if not categories:
        yield ()
        return
    for item in by_end[end]:
        if item.category == categories[-1]:
            for prefix in _prefixes(by_end, categories[:-1], item.start):
                yield prefix + (item,)


def disambiguate(
    item: ParseItem,
    context: Mapping[str, Iterable[str]],
    rules: Mapping[str, frozenset[str]] | None = None,
) -> ParseItem:
    """Filter ambiguous sense sets by what the context says about the
    subject.

    The subject is the item's leftmost leaf.  Properties with rules
    contribute their allowed senses; several applicable rules union.  With
    no applicable fact the item is returned unchanged (later discourse may
    still disambiguate); filtering a sense set down to nothing is a
    contradiction.
    """
    rules = dict(DEMO_CONTEXT_RULES if rules is None else rules)
    subject = item.leaves()[0].lemma
    properties = tuple(context.get(subject, ()))
    applicable = [rules[prop] for prop in properties if prop in rules]
    if not applicable:
        return item
    allowed = frozenset().union(*applicable)
    pool = frozenset().union(*rules.values())

    def rebuild(node: ParseItem) -> ParseItem:
        children = tuple(rebuild(child) for child in node.children)
        senses = node.senses
        if len(senses) > 1 and any(s in pool for s in senses):
            senses = tuple(s for s in senses if s in allowed)
            if not senses:
                raise ContradictionError(
                    f"context filtered every sense out of {node.senses!r}"
                )
        return replace(node, children=children, senses=senses)

    return rebuild(item)


DEMO_CONTEXT_RULES: dict[str, frozenset[str]] = {
    "athlete": frozenset({"record3"}),
    "hacker": frozenset({"record2"}),
    "clumsy": frozenset({"record1"}),
}


def demo_lexicon() -> Lexicon:
    """The worked example: proper noun, ambiguous verb/noun, article, and a
    three-ways-ambiguous noun that is also a verb and an adjective."""
    return Lexicon.make(
        {
            "Eleanor": [("NP", ("Eleanor",))],
            "break": [("Vt", ("break_v",)), ("N", ("break_n",))],
            "the": [("Art", ("the",))],
            "record": [
                ("N", ("record1", "record2", "record3")),
                ("Vt", ("record_v",)),
                ("A", ("record_a",)),
            ],
        },
        morphology={"broke": ("break", ("PAST",))},
    )


def demo_patterns() -> PatternSet:
    return PatternSet.make(
        [
            (("Art", "N"), "NP"),
            (("Vt", "NP"), "VP", 0),
            (("NP", "VP"), "S"),
        ]
    )


def load_grammar(doc: Mapping | str) -> tuple[Lexicon, PatternSet]:
    """Read a lexicon plus patterns from their JSON document form::

        {"words": {"the": [["Art", ["the"]]], ...},
         "morphology": {"broke": ["break", ["PAST"]]},
         "patterns": [[["Art", "N"], "NP"], [["Vt", "NP"], "VP", 0]]}
    """
    if isinstance(doc, str):
        doc = _read_json(doc, lambda value: value, "grammar")
    try:
        lexicon = Lexicon.make(
            {
                word: [(_text(cat, "a category"), senses) for cat, senses in entries]
                for word, entries in doc["words"].items()
            },
            morphology={
                form: (_text(lemma, "a lemma"), features)
                for form, (lemma, features) in doc.get("morphology", {}).items()
            },
        )
        patterns = PatternSet.make(
            (sequence, _text(result, "a pattern result"), *head)
            for sequence, result, *head in doc.get("patterns", [])
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"malformed grammar document: {exc}") from exc
    return lexicon, patterns


def load_network(doc: Mapping) -> ActivationNetwork:
    """Read an activation network from its JSON document form::

        {"nodes": ["y", "grief(x)"], "edges": [["y", "grief(x)"]], "static_links": []}
    """
    try:
        return ActivationNetwork.build(
            _texts(doc["nodes"], "nodes"),
            _rows(doc.get("edges", []), "edges", 2),
            _rows(doc.get("static_links", []), "static links", 3),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"malformed network document: {exc}") from exc
