"""Unit tests for the CRC-32 and Internet-checksum baselines."""

import random
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paper.crc import Crc32, crc32
from repro.paper.inet import InetChecksum, inet_checksum, ones_complement_add


class TestCrc32:
    def test_known_vector_check(self):
        # The canonical CRC-32 test vector.
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0

    @given(st.binary(max_size=256))
    @settings(max_examples=50)
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_incremental_matches_oneshot(self):
        data = bytes(range(100))
        inc = Crc32().update(data[:37]).update(data[37:]).digest()
        assert inc == crc32(data)

    def test_order_dependence(self):
        """The paper: 'A CRC cannot be computed on disordered data.'
        Concatenation order changes the digest."""
        a, b = b"hello-", b"world!"
        assert crc32(a + b) != crc32(b + a)

    def test_detects_bit_flip(self):
        data = bytearray(b"some protocol data unit")
        reference = crc32(bytes(data))
        data[5] ^= 0x10
        assert crc32(bytes(data)) != reference


class TestOnesComplement:
    def test_basic(self):
        assert ones_complement_add(1, 2) == 3

    def test_end_around_carry(self):
        assert ones_complement_add(0xFFFF, 1) == 1

    def test_commutative(self):
        assert ones_complement_add(0x1234, 0xFEDC) == ones_complement_add(0xFEDC, 0x1234)


class TestInetChecksum:
    def test_rfc1071_example(self):
        # RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert inet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_odd_length_padding(self):
        assert inet_checksum(b"\xab") == (~0xAB00) & 0xFFFF

    def test_order_independence_even_fragments(self):
        """Footnote 11: the TCP checksum CAN be computed on disordered
        data — fragments at even offsets sum in any order."""
        data = bytes(range(64))
        reference = inet_checksum(data)
        pieces = [(0, data[:20]), (20, data[20:36]), (36, data[36:])]
        random.Random(4).shuffle(pieces)
        acc = InetChecksum()
        for offset, piece in pieces:
            acc.add_at(offset, piece)
        assert acc.digest() == reference

    def test_odd_offset_fragment_swaps_lanes(self):
        data = bytes(range(32))
        acc = InetChecksum()
        acc.add_at(0, data[:7])
        acc.add_at(7, data[7:])
        assert acc.digest() == inet_checksum(data)

    def test_weakness_misses_word_transposition(self):
        """The documented weakness: swapping aligned 16-bit words leaves
        the sum unchanged — WSC-2's P1 catches exactly this."""
        a = b"\x12\x34\x56\x78"
        b = b"\x56\x78\x12\x34"
        assert inet_checksum(a) == inet_checksum(b)

    def test_detects_simple_corruption(self):
        data = bytearray(b"network payload bytes")
        reference = inet_checksum(bytes(data))
        data[3] ^= 0x01
        assert inet_checksum(bytes(data)) != reference

    @given(st.binary(min_size=2, max_size=128), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_fragmented_sum_matches_oneshot(self, data, seed):
        rng = random.Random(seed)
        cut = rng.randrange(0, len(data) + 1)
        acc = InetChecksum()
        pieces = [(0, data[:cut]), (cut, data[cut:])]
        rng.shuffle(pieces)
        for offset, piece in pieces:
            if piece:
                acc.add_at(offset, piece)
        assert acc.digest() == inet_checksum(data)
