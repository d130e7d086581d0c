"""Unit tests for Appendix A header compression."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.codec import decode_chunks, encode_chunk, encode_chunks
from repro.paper.compress import (
    CompressionProfile,
    HeaderCompressor,
    HeaderDecompressor,
    decode_varint,
    encode_varint,
    implicit_tpdu_ids,
)
from repro.core.errors import CodecError
from repro.core.types import ChunkType
from repro.wsc.invariant import encode_tpdu

from tests.conftest import make_chunk, make_payload


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**14, 2**35, 2**63])
    def test_roundtrip(self, value):
        blob = encode_varint(value)
        decoded, offset = decode_varint(blob, 0)
        assert decoded == value
        assert offset == len(blob)

    def test_small_values_are_one_byte(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80", 0)

    def test_overlong_raises(self):
        with pytest.raises(CodecError):
            decode_varint(b"\xff" * 12, 0)

    @given(st.integers(0, 2**64 - 1))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value


def _roundtrip(profile: CompressionProfile, items: list[Chunk]) -> list[Chunk]:
    compressor = HeaderCompressor(profile)
    decompressor = HeaderDecompressor(profile)
    blob = b"".join(compressor.encode(ch) for ch in items)
    out = []
    offset = 0
    while offset < len(blob):
        chunk, offset = decompressor.decode(blob, offset)
        out.append(chunk)
    return out


def _stream_chunks(tpdu_units=8, frames=3, units=10, implicit=False):
    builder = ChunkStreamBuilder(connection_id=42, tpdu_units=tpdu_units)
    chunks = []
    for i in range(frames):
        chunks += builder.add_frame(make_payload(units, seed=i), frame_id=i)
    return implicit_tpdu_ids(chunks) if implicit else chunks


class TestProfiles:
    def test_empty_profile_roundtrip(self):
        items = _stream_chunks()
        assert _roundtrip(CompressionProfile(), items) == items

    def test_size_elision_roundtrip(self):
        items = _stream_chunks()
        profile = CompressionProfile(size_by_type={ChunkType.DATA: 1})
        assert _roundtrip(profile, items) == items

    def test_connection_id_elision_roundtrip(self):
        items = _stream_chunks()
        profile = CompressionProfile(connection_id=42)
        assert _roundtrip(profile, items) == items

    def test_implicit_tid_roundtrip(self):
        items = _stream_chunks(implicit=True)
        profile = CompressionProfile(implicit_t_id=True)
        assert _roundtrip(profile, items) == items

    def test_implicit_tid_requires_figure7_allocation(self):
        items = _stream_chunks(implicit=False)  # ids 0,1,2... not C.SN-based
        profile = CompressionProfile(implicit_t_id=True)
        compressor = HeaderCompressor(profile)
        with pytest.raises(CodecError):
            for chunk in items:
                compressor.encode(chunk)

    def test_sn_regeneration_roundtrip(self):
        items = _stream_chunks(implicit=True, frames=4, units=13)
        profile = CompressionProfile(
            size_by_type={ChunkType.DATA: 1},
            connection_id=42,
            implicit_t_id=True,
            regenerate_sns=True,
        )
        assert _roundtrip(profile, items) == items

    def test_full_profile_shrinks_headers_substantially(self):
        items = _stream_chunks(implicit=True, frames=6, units=16)
        fixed = sum(ch.wire_bytes for ch in items)
        profile = CompressionProfile(
            size_by_type={ChunkType.DATA: 1},
            connection_id=42,
            implicit_t_id=True,
            regenerate_sns=True,
        )
        compressor = HeaderCompressor(profile)
        compact = sum(len(compressor.encode(ch)) for ch in items)
        payload = sum(ch.payload_bytes for ch in items)
        assert compact - payload < (fixed - payload) / 3

    def test_wrong_connection_rejected(self):
        profile = CompressionProfile(connection_id=1)
        with pytest.raises(CodecError):
            HeaderCompressor(profile).encode(make_chunk(c_id=9))

    def test_wrong_signaled_size_rejected(self):
        profile = CompressionProfile(size_by_type={ChunkType.DATA: 2})
        with pytest.raises(CodecError):
            HeaderCompressor(profile).encode(make_chunk(size=1))

    def test_implicit_sn_without_context_rejected(self):
        profile = CompressionProfile(regenerate_sns=True)
        compressor = HeaderCompressor(profile)
        items = _stream_chunks(implicit=True)
        blob = b"".join(compressor.encode(ch) for ch in items)
        # A decoder joining mid-stream at an implicit header must fail
        # loudly, not guess.
        fresh = HeaderDecompressor(profile)
        first, offset = fresh.decode(blob, 0)  # explicit (TPDU start)
        assert first == items[0]

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            HeaderDecompressor(CompressionProfile()).decode(b"\x7f\x00\x01\x01", 0)

    def test_control_chunks_stay_explicit(self):
        items = _stream_chunks(implicit=True, tpdu_units=5, frames=2, units=10)
        tpdu0 = [c for c in items if c.t.ident == 0]
        _, ed = encode_tpdu(tpdu0)
        stream = items + [ed]
        profile = CompressionProfile(
            connection_id=42, implicit_t_id=True, regenerate_sns=True
        )
        assert _roundtrip(profile, stream) == stream


class TestEdElision:
    """Appendix A's ED-header elision, which the fixed-field codec applies
    to every chunk list it encodes."""

    def _tpdu_with_ed(self):
        builder = ChunkStreamBuilder(connection_id=3, tpdu_units=6)
        chunks = builder.add_frame(make_payload(6))
        _, ed = encode_tpdu(chunks)
        return chunks + [ed]

    def test_elide_and_restore_roundtrip(self):
        stream = self._tpdu_with_ed()
        wire = encode_chunks(stream)
        flags = wire[len(wire) - 12 - len(stream[-2].payload) - 44 + 1]
        assert flags & 0x0A == 0x0A  # T.ST and ED follows on the final DATA chunk
        assert decode_chunks(wire) == stream

    def test_non_adjacent_ed_not_elided(self):
        stream = self._tpdu_with_ed()
        reordered = [stream[-1]] + stream[:-1]  # ED first
        assert encode_chunks(reordered) == b"".join(map(encode_chunk, reordered))

    def test_saved_bytes(self):
        stream = self._tpdu_with_ed()
        raw = sum(chunk.wire_bytes for chunk in stream)
        assert raw - len(encode_chunks(stream)) == 44  # the ED header, nothing else

    def test_restore_rejects_garbage(self):
        wire = encode_chunks(self._tpdu_with_ed())
        with pytest.raises(CodecError, match="truncated ED chunk: need 12 bytes"):
            decode_chunks(wire[:-1])

    def test_restore_rejects_orphan_marker(self):
        first = encode_chunk(make_chunk(units=2))  # no T.ST
        with pytest.raises(CodecError, match="ED-follows flag off T.ST DATA at offset 0"):
            decode_chunks(first[:1] + bytes([first[1] | 0x08]) + first[2:] + bytes(12))
