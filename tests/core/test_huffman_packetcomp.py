"""Unit tests for Huffman coding and packet-scope header compression."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.codec import encode_chunk
from repro.paper.compress import CompressionProfile
from repro.core.errors import CodecError
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import pack_chunks
from repro.core.types import ChunkType
from repro.paper.huffman import DEFAULT_HEADER_CODE, HuffmanCode
from repro.paper.packetcomp import CompressedPacketCodec
from repro.wsc.invariant import encode_tpdu

from tests.conftest import make_payload


class TestHuffmanCode:
    def test_roundtrip_simple(self):
        code = HuffmanCode.from_sample(b"aaaabbbcc" * 10)
        packed, bits = code.encode(b"abcabc")
        assert code.decode(packed, bits) == b"abcabc"

    def test_roundtrip_all_bytes(self):
        code = HuffmanCode.from_sample(bytes(range(256)) * 2)
        data = bytes(range(256))
        packed, bits = code.encode(data)
        assert code.decode(packed, bits) == data

    def test_skewed_input_compresses(self):
        sample = b"\x00" * 900 + bytes(range(100))
        code = HuffmanCode.from_sample(sample)
        packed, bits = code.encode(sample)
        assert len(packed) < len(sample) / 2

    def test_frequent_symbols_get_short_codes(self):
        code = HuffmanCode.from_sample(b"\x00" * 1000 + b"\xff" * 10)
        assert code.lengths[0x00] < code.lengths[0xFF]

    def test_empty_encode(self):
        packed, bits = DEFAULT_HEADER_CODE.encode(b"")
        assert bits == 0
        assert DEFAULT_HEADER_CODE.decode(packed, 0) == b""

    def test_every_byte_encodable_with_default(self):
        data = bytes(range(256))
        packed, bits = DEFAULT_HEADER_CODE.encode(data)
        assert DEFAULT_HEADER_CODE.decode(packed, bits) == data

    def test_bad_frequency_table_length(self):
        with pytest.raises(ValueError):
            HuffmanCode.from_frequencies([1] * 100)

    def test_truncated_bitstream_raises(self):
        code = HuffmanCode.from_sample(b"abcdefgh" * 4)
        packed, bits = code.encode(b"abcdefgh")
        with pytest.raises(ValueError):
            code.decode(packed, bits - 3)

    @given(st.binary(min_size=1, max_size=300))
    @settings(max_examples=60)
    def test_roundtrip_property(self, data):
        packed, bits = DEFAULT_HEADER_CODE.encode(data)
        assert DEFAULT_HEADER_CODE.decode(packed, bits) == data

    def test_mean_bits_estimate(self):
        header_like = b"\x00" * 50 + bytes(range(1, 16)) * 4
        assert DEFAULT_HEADER_CODE.mean_bits_per_byte(header_like) < 8.0


def _traffic(fragment_limit=None):
    builder = ChunkStreamBuilder(connection_id=7, tpdu_units=24)
    chunks = []
    for index in range(4):
        frame = builder.add_frame(make_payload(12, seed=index), frame_id=index)
        chunks += frame
        if frame[-1].t.st:
            chunks.append(encode_tpdu(
                [c for c in chunks if c.is_data and c.t.ident == frame[-1].t.ident]
            )[1])
    if fragment_limit:
        out = []
        for chunk in chunks:
            if chunk.is_data:
                out.extend(split_to_unit_limit(chunk, fragment_limit))
            else:
                out.append(chunk)
        chunks = out
    return chunks


class TestCompressedPacketCodec:
    def test_roundtrip(self):
        chunks = _traffic()
        codec = CompressedPacketCodec()
        assert codec.decode(codec.encode(chunks)) == chunks

    def test_roundtrip_fragmented(self):
        chunks = _traffic(fragment_limit=3)
        codec = CompressedPacketCodec()
        assert codec.decode(codec.encode(chunks)) == chunks

    def test_roundtrip_with_profile(self):
        chunks = _traffic(fragment_limit=4)
        codec = CompressedPacketCodec(
            CompressionProfile(
                size_by_type={ChunkType.DATA: 1, ChunkType.ERROR_DETECTION: 1},
                connection_id=7,
            )
        )
        assert codec.decode(codec.encode(chunks)) == chunks

    def test_compresses_versus_fixed_headers(self):
        chunks = _traffic(fragment_limit=2)  # many headers
        codec = CompressedPacketCodec(CompressionProfile(connection_id=7))
        fixed = sum(len(encode_chunk(c)) for c in chunks)
        compact = len(codec.encode(chunks))
        payload = sum(c.payload_bytes for c in chunks)
        assert (compact - payload) < (fixed - payload) / 4

    def test_packets_decode_independently(self):
        """Unlike stream-scope SN regeneration, each packet carries its
        own context: decoding packet 2 without packet 1 works."""
        chunks = _traffic(fragment_limit=3)
        half = len(chunks) // 2
        codec = CompressedPacketCodec()
        first = codec.encode(chunks[:half])
        second = codec.encode(chunks[half:])
        fresh = CompressedPacketCodec()
        assert fresh.decode(second) == chunks[half:]
        assert fresh.decode(first) == chunks[:half]

    def test_truncated_raises(self):
        codec = CompressedPacketCodec()
        blob = codec.encode(_traffic())
        with pytest.raises(CodecError):
            codec.decode(blob[: len(blob) // 2])

    def test_garbage_raises(self):
        codec = CompressedPacketCodec()
        with pytest.raises(CodecError):
            codec.decode(b"\x05\xff\x00\x01\x02")

    @given(st.integers(0, 40), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, limit):
        builder = ChunkStreamBuilder(connection_id=1, tpdu_units=10)
        chunks = []
        rng = random.Random(seed)
        for index in range(rng.randrange(1, 4)):
            chunks += builder.add_frame(
                make_payload(rng.randrange(1, 15), seed=seed + index),
                frame_id=index,
            )
        pieces = []
        for chunk in chunks:
            pieces.extend(split_to_unit_limit(chunk, limit))
        codec = CompressedPacketCodec()
        assert codec.decode(codec.encode(pieces)) == pieces

    def test_interoperates_with_packing(self):
        """Compress exactly what a normal packet would carry."""
        chunks = _traffic(fragment_limit=4)
        for packet in pack_chunks(chunks, 256):
            codec = CompressedPacketCodec()
            blob = codec.encode(packet.chunks)
            assert codec.decode(blob) == packet.chunks
            assert len(blob) < sum(c.wire_bytes for c in packet.chunks)
