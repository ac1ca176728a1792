"""Decaying memory cells and tapes.

A byte cell stores eight persistent bits plus a write head that rides a
decay chain: left alone, the head falls back to position 0 within eight
ticks while the content stays put.  A tape scales the same idea up to 256
bits (32 byte cells), keeps one or three content replicas (three enable
single-bit error correction by majority vote), and stores its head position
in a counter byte cell one scale down.  The tape head decays coordinatewise,
one bit of its binary encoding per idle tick, so it too rests within eight
ticks.

The command alphabet is five symbols: the idle tick ``e``, head moves ``μ``
(down) and ``ν`` (up), and the writes ``α`` (set) and ``ω`` (clear).  ASCII
aliases mu/nu/alpha/omega are accepted everywhere.

Internally a tape replica is one integer bit mask; the byte-cell sequence
the construction describes is exposed as a derived view.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .errors import InputDomainError, UnsupportedStructureError

TICK = "e"
HEAD_DOWN = "μ"
HEAD_UP = "ν"
WRITE_ONE = "α"
WRITE_ZERO = "ω"
SYMBOLS = (TICK, HEAD_DOWN, HEAD_UP, WRITE_ONE, WRITE_ZERO)

_ALIASES = {
    "e": TICK,
    "mu": HEAD_DOWN,
    "nu": HEAD_UP,
    "alpha": WRITE_ONE,
    "omega": WRITE_ZERO,
    HEAD_DOWN: HEAD_DOWN,
    HEAD_UP: HEAD_UP,
    WRITE_ONE: WRITE_ONE,
    WRITE_ZERO: WRITE_ZERO,
}


def normalize_symbol(symbol: str) -> str:
    try:
        return _ALIASES[symbol]
    except KeyError:
        raise InputDomainError(
            f"unknown tape symbol {symbol!r}; expected one of {SYMBOLS} (or mu/nu/alpha/omega)"
        ) from None


class StepOutput(NamedTuple):
    value: "ByteCell | Tape"
    bit: int
    at_boundary: bool


@dataclass(frozen=True)
class ByteCell:
    """Eight persistent bits plus a head on an eight-position decay chain."""

    bits: tuple[int, ...] = (0,) * 8
    head: int = 0
    scale: int = 0

    def __post_init__(self):
        if len(self.bits) != 8 or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be eight 0/1 values")
        if not 0 <= self.head <= 7:
            raise ValueError("head must lie in [0, 7]")

    @property
    def as_int(self) -> int:
        return sum(bit << i for i, bit in enumerate(self.bits))

    @classmethod
    def from_int(cls, value: int, head: int = 0, scale: int = 0) -> "ByteCell":
        if not 0 <= value <= 255:
            raise ValueError("byte value must lie in [0, 255]")
        return cls(tuple((value >> i) & 1 for i in range(8)), head, scale)

    @property
    def at_rest(self) -> bool:
        return self.head == 0


@dataclass(frozen=True)
class Tape:
    """A 256-bit replicated tape with a decaying head counter."""

    size_bits: int = 256
    contents: tuple[int, ...] = (0, 0, 0)
    head: int = 0
    counter_head: int = 0
    scale: int = 0

    def __post_init__(self):
        if not 8 <= self.size_bits <= 256 or self.size_bits % 8:
            raise ValueError("size_bits must be a multiple of 8 in [8, 256]")
        if len(self.contents) not in (1, 3):
            raise ValueError("tapes carry one replica, or three for error correction")
        limit = 1 << self.size_bits
        if any(not 0 <= mask < limit for mask in self.contents):
            raise ValueError("replica content out of range")
        if not 0 <= self.head < self.size_bits:
            raise ValueError("head out of range")
        if not 0 <= self.counter_head <= 7:
            raise ValueError("counter head must lie in [0, 7]")

    @property
    def replicas(self) -> int:
        return len(self.contents)

    @property
    def head_byte(self) -> int:
        return self.head // 8

    @property
    def head_bit(self) -> int:
        return self.head % 8

    @property
    def counter(self) -> ByteCell:
        """The head position, stored as a byte cell one scale down."""
        return ByteCell.from_int(self.head, head=self.counter_head, scale=self.scale - 1)

    def bit(self, position: int, replica: int = 0) -> int:
        self._check_position(position)
        if not 0 <= replica < self.replicas:
            raise InputDomainError(f"replica {replica} out of range")
        return (self.contents[replica] >> position) & 1

    def replica_cells(self, replica: int = 0) -> tuple[ByteCell, ...]:
        """Content as byte cells; the byte under the head shows its head bit."""
        cells = []
        for byte_index in range(self.size_bits // 8):
            value = (self.contents[replica] >> (byte_index * 8)) & 0xFF
            head = self.head_bit if byte_index == self.head_byte else 0
            cells.append(ByteCell.from_int(value, head=head, scale=self.scale - 1))
        return tuple(cells)

    def content_hex(self, replica: int = 0) -> str:
        width = self.size_bits // 4
        return format(self.contents[replica], f"0{width}x")

    def _check_position(self, position: int):
        if not 0 <= position < self.size_bits:
            raise InputDomainError(
                f"position {position} outside the {self.size_bits}-bit tape"
            )

    @property
    def at_rest(self) -> bool:
        return self.head == 0 and self.counter_head == 0


def build_t1(replicas: int = 3, scale: int = 0) -> Tape:
    """The two-level tape: 256 bits whose counter is a byte cell one scale
    down.  The next level up (2^256 bits) is out of desk-scale reach and is
    documentation only."""
    if replicas not in (1, 3):
        raise InputDomainError("replicas must be 1 or 3")
    return Tape(256, (0,) * replicas, 0, 0, scale)


def read(tape: Tape, position: int) -> int:
    """Content bit at a position: majority over three replicas, direct
    otherwise."""
    if tape.replicas == 3:
        return majority_read(tape, position)
    return tape.bit(position, 0)


def majority_read(tape: Tape, position: int) -> int:
    """Majority vote across the three replicas; corrects any single-replica
    fault."""
    if tape.replicas != 3:
        raise UnsupportedStructureError(
            "majority read needs three replicas; this tape has "
            f"{tape.replicas}"
        )
    tape._check_position(position)
    votes = sum((mask >> position) & 1 for mask in tape.contents)
    return 1 if votes >= 2 else 0


def corrupt(tape: Tape, replica: int, position: int) -> Tape:
    """Flip one bit in one replica (fault injection for the EC demo)."""
    tape._check_position(position)
    if not 0 <= replica < tape.replicas:
        raise InputDomainError(f"replica {replica} out of range")
    masks = list(tape.contents)
    masks[replica] ^= 1 << position
    return replace(tape, contents=tuple(masks))


def _run(target: "ByteCell | Tape", symbols: Iterable[str]):
    """The integer engine behind ``apply_symbol``, ``run_script`` and ``idle``.

    The target is unpacked once: its replica masks (a cell is one replica),
    the majority mask ``maj`` that reads see, the head and the counter head
    (never read for a cell).  A write reaches every replica, so a written
    position holds the same bit in all of them and in ``maj``; the mask
    ``written`` records those positions, and one value is built at the end.
    Returns the value, the emitted bits and the last symbol's boundary flag.
    """
    cell = isinstance(target, ByteCell)
    if cell:
        masks, top, counter_head = (target.as_int,), 7, 0
    elif isinstance(target, Tape):
        masks, top, counter_head = target.contents, target.size_bits - 1, target.counter_head
    else:
        raise InputDomainError(f"cannot apply symbols to {type(target).__name__}")
    a, b, c = masks if len(masks) == 3 else masks * 3
    maj = a & b | a & c | b & c
    head = target.head
    written = 0
    emitted = []
    boundary = False
    for symbol in symbols:
        symbol = normalize_symbol(symbol)
        boundary = False
        if symbol == WRITE_ONE:
            maj |= 1 << head
            written |= 1 << head
        elif symbol == WRITE_ZERO:
            maj &= ~(1 << head)
            written |= 1 << head
        elif symbol == TICK:  # a cell head falls one chain step, a tape head loses one set bit
            if head:
                head = head - 1 if cell else head & (head - 1)
            if counter_head:
                counter_head -= 1
        else:
            moved = head - 1 if symbol == HEAD_DOWN else head + 1
            boundary = not 0 <= moved <= top
            if not boundary:
                counter_head = (head ^ moved).bit_length() - 1
                head = moved
        emitted.append(maj >> head & 1)
    if cell:
        return ByteCell.from_int(maj, head, target.scale), emitted, boundary
    contents = tuple(mask & ~written | maj & written for mask in masks)
    value = replace(target, contents=contents, head=head, counter_head=counter_head)
    return value, emitted, boundary


def apply_symbol(target: "ByteCell | Tape", symbol: str) -> StepOutput:
    """One command or idle tick; returns the new value, the bit now under the
    head, and whether a commanded move saturated at a boundary."""
    value, (bit,), boundary = _run(target, (symbol,))
    return StepOutput(value, bit, boundary)


def run_script(target: "ByteCell | Tape", symbols: Iterable[str]):
    """Apply a whole symbol sequence; returns the final value and the emitted
    bits."""
    value, emitted, _ = _run(target, symbols)
    return value, emitted


def idle(target: "ByteCell | Tape", ticks: int) -> "ByteCell | Tape":
    """Let time pass: content is untouched while heads decay to rest.

    Eight idle ticks reach rest from anywhere (a tape head below 256 has at
    most eight set bits; cell and counter heads are at most 7) and idle
    ticks at rest change nothing, so at most eight are run."""
    if ticks < 0:
        raise InputDomainError(f"ticks must be >= 0, got {ticks}")
    return _run(target, (TICK,) * min(ticks, 8))[0]


def transition_table_size(alphabet_size: int, positions: int, symbols: int) -> int:
    """Cells needed to tabulate a full transition table (contents x heads x
    symbols)."""
    if min(alphabet_size, positions, symbols) < 1:
        raise InputDomainError("all table dimensions must be positive")
    return alphabet_size * positions * symbols
