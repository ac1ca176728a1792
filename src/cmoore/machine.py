"""Moore machine substrate: representation, structural limits, execution.

Every machine in this package is a Moore transducer.  States carry output
strings (the empty string is the silent output, conventionally printed as the
blank symbol "0"), transitions are set-valued so partial and nondeterministic
machines are first-class values, and execution reads the output of a state on
entry.  Machines are immutable after construction; every operation here is a
pure function.  The module also reads CMA-JSON documents, and holds the one
JSON decoder and the string rules (``_text``, ``_texts``) of every document.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter
from random import Random
from typing import Iterable, Mapping

from .errors import InputDomainError

TICK = "e"
IMPULSE = "1"
SILENT = ""
BLANK_GLYPH = "0"


@dataclass(frozen=True)
class Constraints:
    """Structural budgets applied per machine layer.

    The degree bounds are exclusive: a state is legal while its out-degree
    stays strictly below ``max_out_degree`` (counting each (symbol, successor)
    edge) and its in-degree strictly below ``max_in_degree``.
    """

    max_states: int = 10_000
    max_alphabet: int = 256
    max_out_degree: int = 8
    max_in_degree: int = 10_000

    def __post_init__(self):
        for field in ("max_states", "max_alphabet", "max_out_degree", "max_in_degree"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Violation:
    rule: str  # one of ss, io, od, id
    subject: str
    detail: str


@dataclass(frozen=True)
class Automaton:
    """A Moore machine over string-valued states, symbols, and outputs.

    ``outputs`` holds non-silent states once each, in state order; ``edges`` keep
    their construction order, which makes serialization round-trips stable.
    """

    name: str
    states: tuple[str, ...]
    inputs: tuple[str, ...]
    initial: str
    outputs: tuple[tuple[str, str], ...] = ()
    edges: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        if not self.states:
            raise ValueError("a machine needs at least one state")
        known = set(self.states)
        if len(known) != len(self.states):
            raise ValueError("duplicate state identifiers")
        if not self.inputs:
            raise ValueError("the input alphabet needs at least one symbol")
        symbols = set(self.inputs)
        if len(symbols) != len(self.inputs):
            raise ValueError("duplicate input symbols")
        if self.initial not in known:
            raise ValueError(f"initial state {self.initial!r} is not a state")
        attached = dict(self.outputs)  # refuses an output that is not a pair
        if not known.issuperset(attached):
            state = next(q for q in attached if q not in known)
            raise ValueError(f"output attached to unknown state {state!r}")
        if len(attached) != len(self.outputs):
            state = Counter(map(itemgetter(0), self.outputs)).most_common(1)[0][0]
            raise ValueError(f"state {state!r} is given more than one output")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        # unpacking checks each edge's arity too
        for src, sym, dst in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge {(src, sym, dst)!r} touches an unknown state")
            if sym not in symbols:
                raise ValueError(f"edge {(src, sym, dst)!r} uses an unknown symbol")

    @classmethod
    def make(
        cls,
        name: str,
        states: Iterable[str],
        inputs: Iterable[str],
        initial: str,
        outputs: Mapping[str, str] | None = None,
        edges: Iterable[tuple[str, str, str]] = (),
    ) -> "Automaton":
        """Build a machine, normalizing outputs into state order."""
        states = tuple(states)
        known = set(states)
        out_map = dict(outputs or {})
        for state in out_map:
            if state not in known:
                raise ValueError(f"output attached to unknown state {state!r}")
        normalized = tuple(
            (q, out_map[q]) for q in filter(out_map.__contains__, states)
            if out_map[q] != SILENT
        )
        return cls(
            name=name,
            states=states,
            inputs=tuple(inputs),
            initial=initial,
            outputs=normalized,
            edges=tuple(map(tuple, edges)),
        )

    def __repr__(self):
        return (
            f"Automaton({self.name!r}, states={len(self.states)}, "
            f"inputs={len(self.inputs)}, edges={len(self.edges)})"
        )

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def _succ(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The transition relation on indices: ``_succ[a][p]`` holds the
        successors of state ``p`` on symbol ``a``, in state-index order.
        Every kernel reads this one table."""
        index = self._state_index
        symbol = {sym: a for a, sym in enumerate(self.inputs)}
        raw: dict[tuple[int, int], list[int]] = {}
        for src, sym, dst in self.edges:
            raw.setdefault((symbol[sym], index[src]), []).append(index[dst])
        rows = [[()] * len(self.states) for _ in self.inputs]
        for (a, p), targets in raw.items():
            rows[a][p] = tuple(sorted(targets))
        return tuple(map(tuple, rows))

    def _symbol_index(self, symbol: str) -> int:
        try:
            return self.inputs.index(symbol)
        except ValueError:
            raise InputDomainError(f"{self.name}: unknown symbol {symbol!r}") from None

    @cached_property
    def output_map(self) -> dict[str, str]:
        mapping = {q: SILENT for q in self.states}
        mapping.update(dict(self.outputs))
        return mapping

    def output_of(self, state: str) -> str:
        if state not in self._state_index:
            raise InputDomainError(f"{self.name}: unknown state {state!r}")
        return self.output_map[state]

    @cached_property
    def output_alphabet(self) -> frozenset[str]:
        """Distinct output strings in use; the silent output counts as blank."""
        return frozenset(self.output_map.values())

    def successors(self, state: str, symbol: str) -> tuple[str, ...]:
        p = self._state_index.get(state)
        if p is None:
            raise InputDomainError(f"{self.name}: unknown state {state!r}")
        return tuple(self.states[q] for q in self._succ[self._symbol_index(symbol)][p])

    @cached_property
    def deterministic(self) -> bool:
        return all(len(targets) <= 1 for row in self._succ for targets in row)

    @cached_property
    def complete(self) -> bool:
        return all(all(row) for row in self._succ)

    def out_degree(self, state: str) -> int:
        return sum(1 for src, _, _ in self.edges if src == state)

    def in_degree(self, state: str) -> int:
        return sum(1 for _, _, dst in self.edges if dst == state)


@dataclass(frozen=True)
class RunTrace:
    """States and outputs seen over a run; outputs are read on state entry."""

    visited: tuple[str, ...]
    emitted: tuple[str, ...]
    steps: int
    halted: bool = False


class FirstChooser:
    """Deterministic policy: always take the lowest-indexed successor."""

    def choose(self, successors: tuple[str, ...]) -> str:
        return successors[0]


class RandomChooser:
    """Uniform choice among successors, reproducible from a 64-bit seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = Random(seed)

    def choose(self, successors: tuple[str, ...]) -> str:
        if len(successors) == 1:
            return successors[0]
        return successors[self._rng.randrange(len(successors))]


def validate(automaton: Automaton, constraints: Constraints | None = None) -> list[Violation]:
    """Check a machine against the per-layer structural budgets.

    Returns an empty report when the machine fits; each violation names the
    rule it breaks (ss: state count, io: alphabet sizes, od: out-degree,
    id: in-degree) and the offending state or alphabet.
    """
    c = constraints or Constraints()
    report: list[Violation] = []
    if len(automaton.states) > c.max_states:
        report.append(
            Violation("ss", automaton.name, f"{len(automaton.states)} states exceed {c.max_states}")
        )
    if len(automaton.inputs) > c.max_alphabet:
        report.append(
            Violation("io", "input-alphabet", f"{len(automaton.inputs)} symbols exceed {c.max_alphabet}")
        )
    if len(automaton.output_alphabet) > c.max_alphabet:
        report.append(
            Violation(
                "io",
                "output-alphabet",
                f"{len(automaton.output_alphabet)} symbols exceed {c.max_alphabet}",
            )
        )
    out_deg = Counter(map(itemgetter(0), automaton.edges))
    in_deg = Counter(map(itemgetter(2), automaton.edges))
    for q in automaton.states:
        if out_deg[q] >= c.max_out_degree:
            report.append(Violation("od", q, f"out-degree {out_deg[q]} >= {c.max_out_degree}"))
    for q in automaton.states:
        if in_deg[q] >= c.max_in_degree:
            report.append(Violation("id", q, f"in-degree {in_deg[q]} >= {c.max_in_degree}"))
    return report


def step(automaton: Automaton, state: str, symbol: str) -> tuple[tuple[str, str], ...]:
    """One elementary move: (successor, output emitted on entering it) pairs.

    An empty result means the partial machine halts at this configuration.
    """
    return tuple(
        (nxt, automaton.output_of(nxt)) for nxt in automaton.successors(state, symbol)
    )


def run(automaton: Automaton, symbols: Iterable[str], chooser=None) -> RunTrace:
    """Feed a symbol sequence from the initial state and record the trace.

    Nondeterministic branch points need a chooser; halting (an empty
    successor set) truncates the trace and sets the halt flag.
    """
    states, index, table = automaton.states, automaton._state_index, automaton._succ
    current = automaton.initial
    visited = [current]
    emitted = [automaton.output_of(current)]
    steps = 0
    halted = False
    for symbol in symbols:
        targets = table[automaton._symbol_index(symbol)][index[current]]
        if not targets:
            halted = True
            break
        if len(targets) == 1:
            current = states[targets[0]]
        elif chooser is None:
            raise InputDomainError(
                f"{automaton.name}: nondeterministic choice at {current!r} requires a chooser"
            )
        else:
            current = chooser.choose(tuple(states[q] for q in targets))
        steps += 1
        visited.append(current)
        emitted.append(automaton.output_of(current))
    return RunTrace(tuple(visited), tuple(emitted), steps, halted)


def transition_matrix(automaton: Automaton, symbol: str) -> list[list[int]]:
    """Edge-count matrix for one symbol; entry (p, q) counts edges p -> q."""
    n = len(automaton.states)
    matrix = [[0] * n for _ in range(n)]
    for p, targets in enumerate(automaton._succ[automaton._symbol_index(symbol)]):
        for q in targets:
            matrix[p][q] += 1
    return matrix


def to_dot(automaton: Automaton) -> str:
    """Render the machine as a DOT digraph.

    Parallel edges between the same pair of states collapse into a single
    arrow labeled with all of their symbols; signaling states are annotated
    with their output and drawn as double circles.
    """
    lines = [f'digraph "{automaton.name}" {{', "  rankdir=LR;"]
    for q in automaton.states:
        out = automaton.output_map[q]
        label = q if out == SILENT else f"{q} / {out}"
        shape = "doublecircle" if out != SILENT else "circle"
        style = ", style=bold" if q == automaton.initial else ""
        lines.append(f'  "{q}" [label="{label}", shape={shape}{style}];')
    grouped: dict[tuple[str, str], list[str]] = {}
    for src, sym, dst in automaton.edges:
        grouped.setdefault((src, dst), []).append(sym)
    symbol_order = {sym: i for i, sym in enumerate(automaton.inputs)}
    for (src, dst), syms in grouped.items():
        label = ",".join(sorted(syms, key=symbol_order.__getitem__))
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_doc(automaton: Automaton) -> dict:
    """The CMA-JSON document form of a machine."""
    return {
        "name": automaton.name,
        "states": list(automaton.states),
        "initial": automaton.initial,
        "inputs": list(automaton.inputs),
        "outputs": {q: out for q, out in automaton.outputs},
        "edges": [list(edge) for edge in automaton.edges],
    }


def from_doc(doc: Mapping) -> Automaton:
    """Read a machine from its CMA-JSON document form, in which every name
    is a string; a malformed document raises ``InputDomainError``."""
    try:
        if not isinstance(doc, Mapping):
            raise TypeError(f"a machine document must be an object, got {doc!r}")
        outputs = doc.get("outputs", {})
        if not isinstance(outputs, Mapping):
            raise TypeError(f"outputs must be an object, got {outputs!r}")
        return Automaton.make(
            name=_text(doc["name"], "the name"),
            states=_texts(doc["states"], "states"),
            inputs=_texts(doc["inputs"], "inputs"),
            initial=_text(doc["initial"], "the initial state"),
            outputs={_text(q, "a state"): _text(out, "an output") for q, out in outputs.items()},
            edges=_rows(doc.get("edges", []), "edges", 3),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDomainError(f"malformed machine document: {exc}") from exc


def to_json(automaton: Automaton) -> str:
    """The CMA-JSON text of a machine: exactly
    ``json.dumps(to_doc(automaton), indent=2, ensure_ascii=False) + "\\n"``,
    written without the pure-Python encoder that ``indent`` selects."""
    return _json_machine(automaton, "") + "\n"


def from_json(text: str) -> Automaton:
    return _read_json(text, from_doc, "machine")


def _json_block(brackets: str, items: Iterable[str], pad: str) -> str:
    """A JSON array (``brackets`` "[]") or object ("{}") whose items are
    already written, laid out as ``json.dumps(indent=2)`` lays it out when the
    line it opens on is indented by ``pad``."""
    inner = pad + "  "
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}" if body else brackets


def _json_machine(automaton: Automaton, pad: str) -> str:
    """``to_json`` without its final newline, laid out for a value on a line
    indented by ``pad``.  Names must be strings; each distinct one is encoded
    once, by the C string encoder of ``json``."""
    names = {automaton.name, *automaton.states, *automaton.inputs}
    names.update(out for _, out in automaton.outputs)
    quoted = dict(zip(names, map(encode_basestring, names)))
    q = quoted.__getitem__
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    outputs = [f"{quoted[state]}: {quoted[out]}" for state, out in automaton.outputs]
    edges = [
        f"[\n{p3}{quoted[src]},\n{p3}{quoted[sym]},\n{p3}{quoted[dst]}\n{p2}]"
        for src, sym, dst in automaton.edges
    ]
    return _json_block("{}", (
        f'"name": {q(automaton.name)}',
        f'"states": {_json_block("[]", map(q, automaton.states), p1)}',
        f'"initial": {q(automaton.initial)}',
        f'"inputs": {_json_block("[]", map(q, automaton.inputs), p1)}',
        f'"outputs": {_json_block("{}", outputs, p1)}',
        f'"edges": {_json_block("[]", edges, p1)}',
    ), pad)


def _read_json(text: str, reader, kind: str):
    """``reader`` of the value of the JSON ``text``, the one place the package
    decodes JSON; text that is not JSON is a malformed ``kind`` document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDomainError(f"malformed {kind} document: {exc}") from exc
    return reader(doc)


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def _texts(value, what: str, size: int | None = None) -> tuple[str, ...]:
    # a bare string would otherwise be read as a list of its characters
    if (not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value)
            or size not in (None, len(value))):
        count = "" if size is None else f"{size} "
        raise TypeError(f"{what} must be a list of {count}strings, got {value!r}")
    return tuple(value)


def _rows(value, what: str, size: int) -> list[tuple[str, ...]]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} must be a list, got {value!r}")
    # the common case in bulk: every row a list of ``size`` strings
    if ({list}.issuperset(map(type, value)) and {size}.issuperset(map(len, value))
            and {str}.issuperset(map(type, chain.from_iterable(value)))):
        return list(map(tuple, value))
    each = f"each of {what}"
    return [_texts(row, each, size) for row in value]
