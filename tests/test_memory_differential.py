"""The integer memory engine against the reference semantics.

Byte cells with any bits, head and scale, and tapes of 8-256 bits with one
replica or three that disagree (so the majority vote matters), driven by
scripts of Greek symbols, ASCII aliases and the odd unknown symbol, must
give the same values, emitted bits and boundary flags as
``memory_reference``, or raise the same error with the same message.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memory_reference as ref
from cmoore import memory
from cmoore.errors import InputDomainError
from cmoore.memory import SYMBOLS, ByteCell, Tape

settings.register_profile("memory-differential", deadline=None, max_examples=200)
DIFFERENTIAL = settings.get_profile("memory-differential")

KNOWN = SYMBOLS + ("mu", "nu", "alpha", "omega")
UNKNOWN = ("zeta", "MU", "Alpha", "", "e ")
# about one symbol in twenty is unknown, so most scripts run a while first
symbols = st.sampled_from(KNOWN * 4 + UNKNOWN)
scripts = st.lists(symbols, max_size=120)
ticks = st.integers(0, 20) | st.just(10**9)

cells = st.builds(
    ByteCell.from_int,
    st.integers(0, 255),
    head=st.integers(0, 7),
    scale=st.integers(-3, 3),
)


@st.composite
def tapes(draw):
    # half the tapes are full T1 size, where a head of 255 needs eight ticks to rest
    size = draw(st.just(256) | st.sampled_from(range(8, 257, 8)))
    # drawn as bytes, so set bits and disagreements spread over the whole tape
    masks = st.binary(min_size=size // 8, max_size=size // 8).map(
        lambda raw: int.from_bytes(raw, "little")
    )
    contents = draw(
        st.lists(masks, min_size=1, max_size=1)
        | st.lists(masks, min_size=3, max_size=3, unique=True)
    )
    return Tape(
        size,
        tuple(contents),
        draw(st.just(size - 1) | st.integers(0, size - 1)),
        draw(st.integers(0, 7)),
        draw(st.integers(-3, 3)),
    )


targets = cells | tapes()


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # compared with the reference's error
        return type(exc), str(exc)


@DIFFERENTIAL
@given(targets, scripts)
def test_run_script_matches_reference(target, script):
    assert outcome(memory.run_script, target, script) == outcome(ref.run_script, target, script)


@DIFFERENTIAL
@given(targets, scripts)
def test_apply_symbol_matches_reference_step_by_step(target, script):
    for symbol in script:
        expected = outcome(ref.apply_symbol, target, symbol)
        assert outcome(memory.apply_symbol, target, symbol) == expected
        if not isinstance(expected, memory.StepOutput):
            break
        target = expected.value


@DIFFERENTIAL
@given(targets, ticks)
@example(Tape(256, (0, 0, 0), 255, 0), 8)
def test_idle_matches_reference(target, count):
    assert outcome(memory.idle, target, count) == outcome(ref.idle, target, count)


@pytest.mark.parametrize("target", [42, "tape", None])
def test_target_that_is_no_value(target):
    # apply_symbol on a known symbol raises the reference's error ...
    assert outcome(memory.apply_symbol, target, "ν") == outcome(ref.apply_symbol, target, "ν")
    # ... and every entry point now raises it before reading a symbol or tick
    message = f"cannot apply symbols to {type(target).__name__}"
    for function, argument in [
        (memory.apply_symbol, "zeta"),
        (memory.run_script, []),
        (memory.idle, 0),
        (memory.idle, 1),
    ]:
        assert outcome(function, target, argument) == (InputDomainError, message)
