"""Constructors for the canonical machine families.

Wheels, chains, the four-state synapse, relay wires, lexical-aspect shapes,
and the two schema machines are all built here, each parameterized the way
downstream analysis expects them.  Wheel and chain states are named in
spreadsheet style (a, b, ..., z, aa, ...), the initial state is always "a",
and the signaling state is the last state of the cycle or chain.  ``build``
is the one reader of the inline spec grammar (``wheel:4``, ``akt:activity``,
...) that the command line's ``--machine``, ``--inner`` and ``--other`` take.
"""
from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Iterable, Mapping

from .errors import InputDomainError
from .machine import IMPULSE, SILENT, TICK, Automaton, Constraints

SYNAPSE_STATES = ("r", "a", "t", "b")
AKTIONSART_CLASSES = ("state", "semelfactive", "achievement", "accomplishment", "activity")
SCHEMA_NAMES = ("exchange", "gravity")
WIRE_REST = "rest"


def state_names(count: int) -> tuple[str, ...]:
    """Spreadsheet-style state names: a..z, aa, ab, ..."""
    names = []
    for i in range(count):
        n, s = i, ""
        while True:
            n, r = divmod(n, 26)
            s = chr(ord("a") + r) + s
            if n == 0:
                break
            n -= 1
        names.append(s)
    return tuple(names)


def wheel(size: int, loops: Iterable[str] = (), name: str | None = None) -> Automaton:
    """A cyclic machine on the unary tick alphabet.

    ``size`` states are arranged in a cycle; the last one emits "1" and the
    others stay silent, so the wheel signals every ``size`` ticks.  ``loops``
    adds self-loops on the named states, which makes the machine
    nondeterministic there.
    """
    return _cycle("wheel", size, loops, name, closed=True)


def chain(size: int, loops: Iterable[str] = (), name: str | None = None) -> Automaton:
    """A wheel with the cycle-closing transition removed.

    The machine walks its states once and halts after ``size - 1`` ticks;
    the final state still signals "1" on entry.
    """
    return _cycle("chain", size, loops, name, closed=False)


def _cycle(kind: str, size: int, loops: Iterable[str], name: str | None, closed: bool) -> Automaton:
    """A wheel, or a chain when not ``closed``, with one self-loop on each
    state named in ``loops``: a repeated name, or a loop that is already a
    cycle edge, adds no edge."""
    if size < 1:
        raise InputDomainError(f"{kind} size must be >= 1, got {size}")
    names = state_names(size)
    loops = tuple(loops)
    known = set(names)
    unknown = [s for s in loops if s not in known]
    if unknown:
        raise InputDomainError(f"loop states {unknown!r} not among {kind} states")
    edges = [(names[i], TICK, names[(i + 1) % size]) for i in range(size if closed else size - 1)]
    edges = list(dict.fromkeys(edges + [(s, TICK, s) for s in loops]))
    suffix = f",loops={'+'.join(loops)}" if loops else ""
    return Automaton.make(
        name or f"{kind}-{size}{suffix}",
        names,
        (TICK,),
        names[0],
        {names[-1]: "1"},
        edges,
    )


def synapse(
    loops: Iterable[str] = ("r", "a", "b"),
    spontaneous_arousal: bool = False,
    name: str | None = None,
) -> Automaton:
    """The four-state threshold element: rest -> aroused -> transmit -> blocked.

    The machine listens to two symbols: the impulse "1" advances rest to
    aroused and aroused to transmit, while the plain tick only cycles
    self-loops, so reaching the transmitting state takes two impulses.  The
    transmitting state never loops; entering it emits "1" and the next symbol
    of either kind moves on to blocked.  A looped blocked state dwells
    nondeterministically before recovering, and swallows impulses while
    blocked.  ``spontaneous_arousal`` adds a tick-driven rest -> aroused edge
    (off by default; no default probability is assumed).
    """
    loops = tuple(loops)
    bad = [s for s in loops if s not in ("r", "a", "b")]
    if bad:
        raise InputDomainError(f"self-loops allowed only on r, a, b; got {bad!r}")
    edges: list[tuple[str, str, str]] = []
    if "r" in loops:
        edges.append(("r", TICK, "r"))
    if spontaneous_arousal:
        edges.append(("r", TICK, "a"))
    edges.append(("r", IMPULSE, "a"))
    if "a" in loops:
        edges.append(("a", TICK, "a"))
    edges.append(("a", IMPULSE, "t"))
    edges.append(("t", TICK, "b"))
    edges.append(("t", IMPULSE, "b"))
    if "b" in loops:
        edges += [("b", TICK, "b"), ("b", TICK, "r"), ("b", IMPULSE, "b")]
    else:
        edges += [("b", TICK, "r"), ("b", IMPULSE, "r")]
    return Automaton.make(
        name or f"synapse-{''.join(s for s in SYNAPSE_STATES if s in loops) or 'plain'}",
        SYNAPSE_STATES,
        (TICK, IMPULSE),
        "r",
        {"t": "1"},
        edges,
    )


def wire(symbols: Iterable[str], name: str | None = None) -> Automaton:
    """A relay with one state per symbol plus a silent rest state.

    From any state, receiving a symbol moves to that symbol's state, which
    re-emits it; this exposes fast inner signals to slower outer machines.
    Symbols must be distinct and non-empty.
    """
    symbols = tuple(symbols)
    if not symbols:
        raise InputDomainError("a wire needs at least one symbol")
    if len(set(symbols)) != len(symbols):
        raise InputDomainError("wire symbols must be distinct")
    if WIRE_REST in symbols:
        raise InputDomainError(f"{WIRE_REST!r} is reserved for the rest state")
    if "" in symbols:
        raise InputDomainError("wire symbols must be non-empty")
    states = (WIRE_REST,) + symbols
    edges = [(src, sym, sym) for src in states for sym in symbols]
    return Automaton.make(
        name or f"wire-{''.join(symbols)}",
        states,
        symbols,
        WIRE_REST,
        {sym: sym for sym in symbols},
        edges,
    )


def aktionsart(kind: str) -> Automaton:
    """Lexical-aspect shapes as minimal machines.

    states: one looped state; semelfactive: one state, no loop; achievement:
    a bare two-state chain; accomplishment: the chain with a loop on its
    first state; activity: loops on both.
    """
    builders = {
        "state": lambda: wheel(1, name="akt-state"),
        "semelfactive": lambda: chain(1, name="akt-semelfactive"),
        "achievement": lambda: chain(2, name="akt-achievement"),
        "accomplishment": lambda: chain(2, loops=("a",), name="akt-accomplishment"),
        "activity": lambda: chain(2, loops=("a", "b"), name="akt-activity"),
    }
    try:
        return builders[kind]()
    except KeyError:
        raise InputDomainError(
            f"unknown aktionsart class {kind!r}; expected one of {AKTIONSART_CLASSES}"
        ) from None


def schema(kind: str) -> Automaton:
    """Schema machines: the three-state exchange chain and the gravity cycle.

    Fluent annotations for these live in the fluents module; the machines
    themselves stay silent.
    """
    if kind == "exchange":
        return Automaton.make(
            "schema-exchange",
            ("b", "mid", "a"),
            (TICK,),
            "b",
            {},
            [("b", TICK, "mid"), ("mid", TICK, "a")],
        )
    if kind == "gravity":
        return Automaton.make(
            "schema-gravity",
            ("rest", "falling"),
            (TICK,),
            "rest",
            {},
            [("rest", TICK, "falling"), ("falling", TICK, "rest")],
        )
    raise InputDomainError(f"unknown schema {kind!r}; expected one of {SCHEMA_NAMES}")


def annotate_outputs(automaton: Automaton, labels: Mapping[str, str]) -> Automaton:
    """Copy a machine with the output map overridden on the given states.

    Several states may share one signal; their occupancies then sum in any
    per-signal statistics.
    """
    for state in labels:
        if state not in automaton._state_index:
            raise InputDomainError(f"{automaton.name}: unknown state {state!r}")
    merged = dict(automaton.output_map)
    merged.update(labels)
    normalized = tuple((q, merged[q]) for q in automaton.states if merged[q] != SILENT)
    return replace(automaton, outputs=normalized)


def _cycle_spec(kind: str, rest: str | None, c: Constraints) -> Automaton:
    parts = rest.split(",") if rest else []
    if not parts or not parts[0].strip():
        raise InputDomainError(f"{kind} spec needs a size, e.g. {kind}:4")
    try:
        size = int(parts[0])
    except ValueError:
        raise InputDomainError(f"bad {kind} size {parts[0]!r}") from None
    loops: tuple[str, ...] = ()
    for extra in parts[1:]:
        key, _, value = extra.partition("=")
        if key.strip() != "loops":
            raise InputDomainError(f"unknown {kind} option {key!r}")
        loops = tuple(value.split("+")) if value else ()
    if size > c.max_states:
        raise InputDomainError(f"{kind} size {size} exceeds the state budget {c.max_states}")
    return _cycle(kind, size, loops, None, closed=kind == "wheel")


def _wire_spec(rest: str | None, c: Constraints) -> Automaton:
    if not rest:
        raise InputDomainError("wire spec needs symbols, e.g. wire:01")
    symbols = tuple(rest.split("+")) if "+" in rest else tuple(rest)
    if len(symbols) > c.max_alphabet:
        raise InputDomainError(
            f"wire alphabet {len(symbols)} exceeds the symbol budget {c.max_alphabet}"
        )
    if len(symbols) + 1 > c.max_states:
        raise InputDomainError("wire state count exceeds the state budget")
    return wire(symbols)


# The inline spec kinds, each with its reader.  A reader gets the text after
# the first colon (None when there is no colon) and the structural budgets,
# which it checks before it builds anything.
_SPEC_READERS = {
    "wheel": partial(_cycle_spec, "wheel"),
    "chain": partial(_cycle_spec, "chain"),
    "synapse": lambda rest, c: synapse("rab" if rest is None else rest),
    "wire": _wire_spec,
    "akt": lambda rest, c: aktionsart(rest or ""),
    "schema": lambda rest, c: schema(rest or ""),
}


def is_spec(text: str) -> bool:
    """Whether ``build`` reads ``text`` as a spec of a known kind."""
    return text.partition(":")[0].strip() in _SPEC_READERS


def build(spec: str, constraints: Constraints | None = None) -> Automaton:
    """Build a machine from a compact spec like ``wheel:4``, ``wheel:2,loops=a``
    (the last ``loops=`` wins), ``chain:3``, ``synapse:rab`` (bare ``synapse``
    loops on r, a and b), ``wire:01`` or ``wire:x+y``, ``akt:activity`` or
    ``schema:exchange``.  The kind is the text before the first colon,
    stripped; parameters that exceed the structural budgets are refused
    before anything is built."""
    head, colon, rest = spec.partition(":")
    kind = head.strip()
    reader = _SPEC_READERS.get(kind)
    if reader is None:
        raise InputDomainError(f"unknown machine kind {kind!r}")
    return reader(rest if colon else None, constraints or Constraints())


def gallery() -> list[Automaton]:
    """One machine of every flavor; handy for round-trip and property tests."""
    machines = [
        wheel(1),
        wheel(2, loops=("a",)),
        wheel(4),
        wheel(10),
        chain(1),
        chain(3),
        chain(5),
        synapse(),
        synapse(loops=("r", "a")),
        wire(("x", "y")),
        wire(("0", "1", "μ", "ν")),
        schema("exchange"),
        schema("gravity"),
    ]
    machines += [aktionsart(kind) for kind in AKTIONSART_CLASSES]
    return machines
