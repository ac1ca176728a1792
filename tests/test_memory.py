"""Byte cell and tape semantics checked against a flat-array oracle."""
from random import Random

import pytest
from hypothesis import given, strategies as st

from cmoore.errors import InputDomainError, UnsupportedStructureError
from cmoore.memory import (
    SYMBOLS,
    ByteCell,
    Tape,
    apply_symbol,
    build_t1,
    corrupt,
    idle,
    majority_read,
    read,
    run_script,
    transition_table_size,
)


class ArrayTapeOracle:
    """Mutable-array reference semantics for the five-symbol command set."""

    def __init__(self, size=256):
        self.bits = [0] * size
        self.head = 0
        self.size = size

    def apply(self, symbol):
        if symbol in ("μ", "mu"):
            self.head = max(0, self.head - 1)
        elif symbol in ("ν", "nu"):
            self.head = min(self.size - 1, self.head + 1)
        elif symbol in ("α", "alpha"):
            self.bits[self.head] = 1
        elif symbol in ("ω", "omega"):
            self.bits[self.head] = 0
        else:  # idle: one coordinate of the head encoding decays per tick
            self.head &= self.head - 1


def tape_bits(tape, replica=0):
    return [tape.bit(i, replica) for i in range(tape.size_bits)]


class TestByteCell:
    def test_move_move_write(self):
        cell, emitted = run_script(ByteCell(), ["ν", "ν", "α"])
        assert cell.bits == (0, 0, 1, 0, 0, 0, 0, 0)
        assert cell.head == 2
        assert emitted[-1] == 1

    def test_head_decays_to_zero_within_eight_idle_ticks(self):
        cell = ByteCell(bits=(1, 0, 1, 0, 1, 0, 1, 0), head=7)
        rested = idle(cell, 8)
        assert rested.head == 0
        assert rested.bits == cell.bits

    def test_clear_at_the_low_end(self):
        cell = ByteCell(bits=(1,) * 8, head=0)
        out = apply_symbol(cell, "ω")
        assert out.value.bits == (0,) + (1,) * 7
        assert out.bit == 0

    def test_saturation_flags(self):
        assert apply_symbol(ByteCell(head=0), "μ").at_boundary
        assert apply_symbol(ByteCell(head=7), "ν").at_boundary
        assert not apply_symbol(ByteCell(head=3), "ν").at_boundary

    def test_aliases_and_unknown_symbols(self):
        assert apply_symbol(ByteCell(), "nu").value.head == 1
        with pytest.raises(InputDomainError):
            apply_symbol(ByteCell(), "zeta")

    def test_int_round_trip(self):
        cell = ByteCell.from_int(0b10110001)
        assert cell.as_int == 0b10110001


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ByteCell((0,) * 7), ValueError, "bits must be eight 0/1 values"),
        (lambda: ByteCell((2,) + (0,) * 7), ValueError, "bits must be eight 0/1 values"),
        (lambda: ByteCell(head=8), ValueError, "head must lie in [0, 7]"),
        (lambda: ByteCell.from_int(256), ValueError, "byte value must lie in [0, 255]"),
        (lambda: Tape(size_bits=12), ValueError, "size_bits must be a multiple of 8 in [8, 256]"),
        (lambda: Tape(size_bits=264), ValueError, "size_bits must be a multiple of 8 in [8, 256]"),
        (lambda: Tape(contents=(0, 0)), ValueError,
         "tapes carry one replica, or three for error correction"),
        (lambda: Tape(8, (256,)), ValueError, "replica content out of range"),
        (lambda: Tape(8, (0,), head=8), ValueError, "head out of range"),
        (lambda: Tape(8, (0,), counter_head=8), ValueError, "counter head must lie in [0, 7]"),
        (lambda: build_t1(1).bit(0, replica=1), InputDomainError, "replica 1 out of range"),
        (lambda: build_t1().bit(256), InputDomainError, "position 256 outside the 256-bit tape"),
        (lambda: corrupt(build_t1(), 3, 0), InputDomainError, "replica 3 out of range"),
        (lambda: idle(build_t1(), -1), InputDomainError, "ticks must be >= 0, got -1"),
    ],
    ids=["seven-bits", "bit-two", "cell-head", "byte-value", "size-bits", "size-bits-past-256",
         "two-replicas", "content", "tape-head", "counter-head", "bit-replica", "bit-position",
         "corrupt-replica", "idle-ticks"],
)
def test_a_refused_value_names_its_fault(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


class TestTableSize:
    def test_byte_cell_table(self):
        assert transition_table_size(256, 8, 5) == 10240

    def test_minimal_cell(self):
        assert transition_table_size(2, 1, 5) == 10

    def test_without_idle_symbol(self):
        assert transition_table_size(2**8, 8, 4) == 8192

    def test_positivity(self):
        with pytest.raises(InputDomainError):
            transition_table_size(0, 8, 5)


class TestMajorityRead:
    def test_unanimous(self):
        tape = Tape(contents=(1, 1, 1), size_bits=8)
        assert majority_read(tape, 0) == 1

    def test_two_against_one(self):
        tape = Tape(contents=(1, 0, 1), size_bits=8)
        assert majority_read(tape, 0) == 1

    def test_corruption_is_outvoted(self):
        tape = corrupt(build_t1(), 2, 7)
        assert read(tape, 7) == 0

    def test_every_single_fault_is_corrected(self):
        rng = Random(5)
        tape = build_t1()
        script = [SYMBOLS[rng.randrange(5)] for _ in range(400)]
        tape, _ = run_script(tape, script)
        reference = tape_bits(tape)
        for replica in range(3):
            for position in range(0, 256, 17):
                faulty = corrupt(tape, replica, position)
                assert [majority_read(faulty, i) for i in range(256)] == reference

    def test_single_replica_unsupported(self):
        with pytest.raises(UnsupportedStructureError):
            majority_read(build_t1(replicas=1), 0)


class TestIdle:
    def test_content_survives_a_myriad_ticks(self):
        rng = Random(11)
        tape, _ = run_script(build_t1(), [SYMBOLS[rng.randrange(5)] for _ in range(300)])
        before = tape_bits(tape)
        rested = idle(tape, 10_000)
        assert tape_bits(rested) == before

    def test_zero_ticks_is_identity(self):
        tape, _ = run_script(build_t1(), ["ν", "α"])
        assert idle(tape, 0) == tape

    def test_head_and_counter_rest_within_eight_ticks(self):
        tape, _ = run_script(build_t1(), ["ν"] * 143)  # head at byte 17, bit 7
        assert tape.head_byte == 17
        rested = idle(tape, 8)
        assert rested.head == 0
        assert rested.counter.as_int == 0
        assert rested.counter.head == 0


class TestT1:
    def test_fresh_tape_is_blank(self):
        tape = build_t1()
        assert tape.size_bits == 256
        assert all(bit == 0 for bit in tape_bits(tape))
        assert tape.counter.as_int == 0

    def test_walk_to_the_top_bit(self):
        tape, _ = run_script(build_t1(), ["ν"] * 255 + ["α"])
        assert read(tape, 255) == 1
        assert tape.counter.as_int == 255

    def test_counter_tracks_the_head_after_every_operation(self):
        rng = Random(23)
        tape = build_t1()
        for _ in range(500):
            tape = apply_symbol(tape, SYMBOLS[rng.randrange(5)]).value
            assert tape.counter.as_int == tape.head

    def test_replica_cells_view(self):
        tape, _ = run_script(build_t1(), ["ν"] * 10 + ["α"])
        cells = tape.replica_cells()
        assert len(cells) == 32
        assert cells[1].bits[2] == 1  # bit 10 = byte 1, bit 2
        assert cells[1].head == 2

    def test_idle_stretches_never_disturb_content(self):
        # durability: any run of idle ticks wedged between commands leaves
        # the stored bits exactly as they were (only the heads decay)
        rng = Random(3)
        tape = build_t1()
        for _ in range(60):
            for _ in range(rng.randrange(5)):
                tape = apply_symbol(tape, SYMBOLS[1 + rng.randrange(4)]).value
            before = tape_bits(tape)
            tape = idle(tape, rng.randrange(12))
            assert tape_bits(tape) == before

    @given(st.lists(st.sampled_from(SYMBOLS + ("mu", "nu", "alpha", "omega")), max_size=300))
    def test_matches_the_array_oracle(self, script):
        tape, _ = run_script(build_t1(), script)
        oracle = ArrayTapeOracle()
        for symbol in script:
            oracle.apply(symbol)
        assert tape_bits(tape) == oracle.bits
        assert tape.head == oracle.head

    def test_boundary_flags(self):
        assert apply_symbol(build_t1(), "μ").at_boundary
        top, _ = run_script(build_t1(), ["ν"] * 255)
        assert apply_symbol(top, "ν").at_boundary

    def test_replica_count_choices(self):
        assert build_t1(replicas=1).replicas == 1
        with pytest.raises(InputDomainError):
            build_t1(replicas=2)
