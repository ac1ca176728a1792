"""Reference memory semantics for differential tests.

This is the original value-rebuilding step: every symbol dispatches on the
target's type and rebuilds a frozen ``ByteCell`` or ``Tape`` with
``dataclasses.replace``, reading the bit under the head back through
``read``.  It is slow but written straight from the command rules, so the
integer engine in ``cmoore.memory`` is checked against it, together with
``run_script`` and ``idle`` built on top of it the way they were before.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from cmoore.errors import InputDomainError
from cmoore.memory import (
    HEAD_DOWN,
    HEAD_UP,
    TICK,
    WRITE_ONE,
    WRITE_ZERO,
    ByteCell,
    StepOutput,
    Tape,
    normalize_symbol,
    read,
)


def _apply_cell(cell: ByteCell, symbol: str) -> StepOutput:
    head = cell.head
    bits = cell.bits
    boundary = False
    if symbol == HEAD_DOWN:
        if head == 0:
            boundary = True
        else:
            head -= 1
    elif symbol == HEAD_UP:
        if head == 7:
            boundary = True
        else:
            head += 1
    elif symbol == WRITE_ONE:
        bits = bits[:head] + (1,) + bits[head + 1 :]
    elif symbol == WRITE_ZERO:
        bits = bits[:head] + (0,) + bits[head + 1 :]
    else:  # idle tick: the head decays one chain step, content persists
        if head > 0:
            head -= 1
    new = replace(cell, bits=bits, head=head)
    return StepOutput(new, bits[head], boundary)


def _decay_head(head: int) -> int:
    """Coordinatewise decay: one set bit of the position clears per tick."""
    return head & (head - 1) if head else 0


def _write_position(old: int, new: int) -> int | None:
    changed = old ^ new
    return changed.bit_length() - 1 if changed else None


def _apply_tape(tape: Tape, symbol: str) -> StepOutput:
    head = tape.head
    counter_head = tape.counter_head
    contents = tape.contents
    boundary = False
    if symbol == HEAD_DOWN or symbol == HEAD_UP:
        if symbol == HEAD_DOWN:
            new_head = head - 1 if head > 0 else 0
            boundary = head == 0
        else:
            new_head = head + 1 if head < tape.size_bits - 1 else head
            boundary = head == tape.size_bits - 1
        touched = _write_position(head, new_head)
        if touched is not None:
            counter_head = touched
        head = new_head
    elif symbol == WRITE_ONE:
        contents = tuple(mask | (1 << head) for mask in contents)
    elif symbol == WRITE_ZERO:
        contents = tuple(mask & ~(1 << head) for mask in contents)
    else:  # idle: both the head encoding and the counter's own head decay
        head = _decay_head(head)
        if counter_head > 0:
            counter_head -= 1
    new = replace(tape, contents=contents, head=head, counter_head=counter_head)
    return StepOutput(new, read(new, head), boundary)


def apply_symbol(target: "ByteCell | Tape", symbol: str) -> StepOutput:
    """One command or idle tick; returns the new value, the bit now under the
    head, and whether a commanded move saturated at a boundary."""
    canonical = normalize_symbol(symbol)
    if isinstance(target, ByteCell):
        return _apply_cell(target, canonical)
    if isinstance(target, Tape):
        return _apply_tape(target, canonical)
    raise InputDomainError(f"cannot apply symbols to {type(target).__name__}")


def run_script(target: "ByteCell | Tape", symbols: Iterable[str]):
    """Apply a whole symbol sequence; returns the final value and the emitted
    bits."""
    emitted = []
    for symbol in symbols:
        target, bit, _ = apply_symbol(target, symbol)
        emitted.append(bit)
    return target, emitted


def idle(target: "ByteCell | Tape", ticks: int) -> "ByteCell | Tape":
    """Let time pass: content is untouched while heads decay to rest."""
    if ticks < 0:
        raise InputDomainError(f"ticks must be >= 0, got {ticks}")
    for _ in range(ticks):
        if target.at_rest:
            break
        target = apply_symbol(target, TICK).value
    return target
