"""Unit and property tests for the WSC-2 weighted sum code."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wsc.gf32 import alpha_pow, gf_mul
from repro.wsc.wsc2 import (
    MAX_POSITIONS,
    Wsc2Accumulator,
    bytes_from_symbols,
    symbols_from_bytes,
    wsc2_encode,
)

symbols_strategy = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64)


class TestSymbols:
    def test_bytes_to_symbols(self):
        assert symbols_from_bytes(b"\x00\x00\x00\x01\xff\x00\x00\x00") == [1, 0xFF000000]

    def test_padding(self):
        assert symbols_from_bytes(b"\xab") == [0xAB000000]

    def test_roundtrip_aligned(self):
        data = bytes(range(16))
        assert bytes_from_symbols(symbols_from_bytes(data)) == data

    def test_empty(self):
        assert symbols_from_bytes(b"") == []


class TestDefinition:
    def test_p0_is_xor_of_symbols(self):
        symbols = [3, 5, 9]
        p0, _ = wsc2_encode(symbols)
        assert p0 == 3 ^ 5 ^ 9

    def test_p1_is_weighted_sum(self):
        symbols = [0xAAAA, 0x5555, 0x1234]
        _, p1 = wsc2_encode(symbols)
        expected = 0
        for i, symbol in enumerate(symbols):
            expected ^= gf_mul(alpha_pow(i), symbol)
        assert p1 == expected

    def test_single_symbol_at_position(self):
        acc = Wsc2Accumulator()
        acc.add_symbol(7, 0xBEEF)
        assert acc.p0 == 0xBEEF
        assert acc.p1 == gf_mul(alpha_pow(7), 0xBEEF)

    def test_zero_symbols_contribute_nothing(self):
        """Unused i values are equivalent to encoding zero (Section 4)."""
        a = wsc2_encode([5, 0, 0, 7])
        acc = Wsc2Accumulator()
        acc.add_symbol(0, 5)
        acc.add_symbol(3, 7)
        assert acc.value() == a

    def test_position_budget_enforced(self):
        acc = Wsc2Accumulator()
        with pytest.raises(ValueError):
            acc.add_symbol(MAX_POSITIONS, 1)
        with pytest.raises(ValueError):
            acc.add_run(MAX_POSITIONS - 1, [1, 2])
        acc.add_symbol(MAX_POSITIONS - 1, 1)  # last valid position


class TestOrderIndependence:
    @given(symbols_strategy, st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_symbol_order_does_not_matter(self, symbols, seed):
        reference = wsc2_encode(symbols)
        positions = list(enumerate(symbols))
        random.Random(seed).shuffle(positions)
        acc = Wsc2Accumulator()
        for position, symbol in positions:
            acc.add_symbol(position, symbol)
        assert acc.value() == reference

    @given(symbols_strategy, st.integers(1, 10), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_run_partition_does_not_matter(self, symbols, runs, seed):
        reference = wsc2_encode(symbols)
        rng = random.Random(seed)
        if len(symbols) > 1:
            cuts = sorted(rng.sample(range(1, len(symbols)), min(runs, len(symbols) - 1)))
        else:
            cuts = []
        pieces = []
        last = 0
        for cut in cuts + [len(symbols)]:
            pieces.append((last, symbols[last:cut]))
            last = cut
        rng.shuffle(pieces)
        acc = Wsc2Accumulator()
        for start, run in pieces:
            acc.add_run(start, run)
        assert acc.value() == reference

    @given(symbols_strategy)
    @settings(max_examples=30)
    def test_combine_matches_single_accumulator(self, symbols):
        reference = wsc2_encode(symbols)
        left = Wsc2Accumulator()
        right = Wsc2Accumulator()
        for i, symbol in enumerate(symbols):
            (left if i % 2 else right).add_symbol(i, symbol)
        right.combine(left)
        assert right.value() == reference

    def test_add_bytes_matches_add_run(self):
        data = bytes(range(32))
        a = Wsc2Accumulator()
        a.add_bytes(10, data)
        b = Wsc2Accumulator()
        b.add_run(10, symbols_from_bytes(data))
        assert a.value() == b.value()

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize("data", [b"abcde", b"abcdefgh", b"a", bytes(range(7))])
    def test_add_bytes_takes_any_bytes_like_aligned_or_not(self, wrap, data):
        """An unaligned memoryview used to raise TypeError."""
        a = Wsc2Accumulator()
        a.add_bytes(3, wrap(data))
        b = Wsc2Accumulator()
        b.add_run(3, symbols_from_bytes(data))
        assert a.value() == b.value()

    def test_add_bytes_pads_the_tail_with_zeros(self):
        a = Wsc2Accumulator()
        a.add_bytes(0, b"abcde")
        b = Wsc2Accumulator()
        b.add_bytes(0, b"abcde\x00\x00\x00")
        assert a.value() == b.value()

    def test_add_bytes_empty_is_a_no_op(self):
        acc = Wsc2Accumulator(p0=5, p1=7)
        for empty in (b"", bytearray(), memoryview(b"")):
            acc.add_bytes(9, empty)
        assert acc.value() == (5, 7)

    def test_add_bytes_checks_positions_before_any_state_moves(self):
        acc = Wsc2Accumulator()
        with pytest.raises(ValueError):
            acc.add_bytes(MAX_POSITIONS - 1, b"abcde")  # two symbols, one slot
        with pytest.raises(ValueError):
            acc.add_bytes(-1, b"abcd")
        assert acc.value() == (0, 0)
        acc.add_bytes(MAX_POSITIONS - 2, b"abcde")  # the last two positions


class TestSymbolRange:
    """Out-of-range symbols used to leave p0 outside 32 bits and only
    fail later, as struct.error in EdPayload.encode."""

    @pytest.mark.parametrize("value", [1 << 32, 1 << 40, -1])
    def test_add_symbol_rejects(self, value):
        acc = Wsc2Accumulator()
        with pytest.raises(ValueError):
            acc.add_symbol(0, value)
        assert acc.value() == (0, 0)

    @pytest.mark.parametrize("values", [[1 << 40, 5], [5, -1], [-1, 1 << 33]])
    def test_add_run_rejects(self, values):
        acc = Wsc2Accumulator()
        with pytest.raises(ValueError):
            acc.add_run(0, values)
        assert acc.value() == (0, 0)

    def test_full_range_accepted(self):
        acc = Wsc2Accumulator()
        acc.add_symbol(0, 0xFFFFFFFF)
        acc.add_run(1, [0, 0xFFFFFFFF])
        assert acc.p0 == 0


class TestDetectionPower:
    def test_detects_single_symbol_change(self):
        symbols = list(range(1, 33))
        reference = wsc2_encode(symbols)
        symbols[13] ^= 0x40
        assert wsc2_encode(symbols) != reference

    def test_detects_transposition(self):
        """Swapping two (distinct) symbols preserves P0 but changes P1 —
        this is precisely where WSC-2 beats the Internet checksum."""
        symbols = [10, 20, 30, 40]
        p0a, p1a = wsc2_encode(symbols)
        swapped = [10, 30, 20, 40]
        p0b, p1b = wsc2_encode(swapped)
        assert p0a == p0b
        assert p1a != p1b

    def test_detects_symbol_at_wrong_position(self):
        acc_a = Wsc2Accumulator()
        acc_a.add_symbol(5, 0x77)
        acc_b = Wsc2Accumulator()
        acc_b.add_symbol(6, 0x77)
        assert acc_a.value() != acc_b.value()

    @given(symbols_strategy, st.data())
    @settings(max_examples=50)
    def test_any_single_symbol_corruption_detected(self, symbols, data):
        reference = wsc2_encode(symbols)
        index = data.draw(st.integers(0, len(symbols) - 1))
        flip = data.draw(st.integers(1, 2**32 - 1))
        corrupted = list(symbols)
        corrupted[index] ^= flip
        assert wsc2_encode(corrupted) != reference

    def test_random_miss_rate_is_tiny(self):
        """With 64 parity bits, random corruption essentially never
        passes: 20k trials must produce zero collisions."""
        rng = random.Random(99)
        symbols = [rng.getrandbits(32) for _ in range(64)]
        reference = wsc2_encode(symbols)
        misses = 0
        for _ in range(2000):
            corrupted = list(symbols)
            for _ in range(rng.randrange(1, 6)):
                corrupted[rng.randrange(len(corrupted))] = rng.getrandbits(32)
            if corrupted != symbols and wsc2_encode(corrupted) == reference:
                misses += 1
        assert misses == 0
