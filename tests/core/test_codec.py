"""Unit tests for the fixed-field wire codec."""

import pytest
from hypothesis import given

from repro.core import codec
from repro.core.errors import CodecError
from repro.core.types import HEADER_BYTES
from repro.wsc.invariant import EdPayload, build_ed_chunk

from tests.conftest import make_chunk
from tests.core.test_fragment_properties import chunks


class TestChunkRoundTrip:
    def test_simple_roundtrip(self):
        chunk = make_chunk(units=5)
        data = codec.encode_chunk(chunk)
        decoded, offset = codec.decode_chunk(data)
        assert decoded == chunk
        assert offset == len(data)

    def test_header_is_44_bytes(self):
        chunk = make_chunk(units=1)
        assert len(codec.encode_chunk(chunk)) == HEADER_BYTES + 4

    def test_st_flag_bits_roundtrip(self):
        for c_st in (False, True):
            for t_st in (False, True):
                for x_st in (False, True):
                    chunk = make_chunk(units=2, c_st=c_st, t_st=t_st, x_st=x_st)
                    decoded, _ = codec.decode_chunk(codec.encode_chunk(chunk))
                    assert (decoded.c.st, decoded.t.st, decoded.x.st) == (
                        c_st, t_st, x_st,
                    )

    def test_control_chunk_roundtrip(self):
        ed = build_ed_chunk(3, 4, EdPayload(0xDEADBEEF, 0xCAFEF00D, 77))
        decoded, _ = codec.decode_chunk(codec.encode_chunk(ed))
        assert decoded == ed

    def test_large_sns_roundtrip(self):
        chunk = make_chunk(units=1, c_sn=2**40, t_sn=2**33, x_sn=2**50)
        decoded, _ = codec.decode_chunk(codec.encode_chunk(chunk))
        assert decoded == chunk

    @given(chunks(max_units=16))
    def test_roundtrip_property(self, chunk):
        decoded, offset = codec.decode_chunk(codec.encode_chunk(chunk))
        assert decoded == chunk


class TestDecodeErrors:
    def test_unknown_type_raises(self):
        data = bytearray(codec.encode_chunk(make_chunk(units=1)))
        data[0] = 0x7F
        with pytest.raises(CodecError):
            codec.decode_chunk(bytes(data))

    def test_truncated_payload_raises(self):
        data = codec.encode_chunk(make_chunk(units=4))
        with pytest.raises(CodecError):
            codec.decode_chunk(data[:-3])

    def test_zero_size_raises(self):
        data = bytearray(codec.encode_chunk(make_chunk(units=1)))
        data[2] = data[3] = 0  # SIZE field
        with pytest.raises(CodecError):
            codec.decode_chunk(bytes(data))

    def test_short_buffer_is_padding_not_error(self):
        chunk, offset = codec.decode_chunk(b"\x01" * 10)
        assert chunk is None
        assert offset == 10


class TestSentinel:
    def test_len_zero_is_sentinel(self):
        chunk, _ = codec.decode_chunk(codec.SENTINEL_HEADER)
        assert chunk is None

    def test_type_zero_is_sentinel(self):
        data = bytearray(codec.encode_chunk(make_chunk(units=1)))
        data[0] = 0
        chunk, _ = codec.decode_chunk(bytes(data))
        assert chunk is None

    def test_decode_chunks_stops_at_sentinel(self):
        first = make_chunk(units=2)
        blob = (
            codec.encode_chunk(first)
            + codec.SENTINEL_HEADER
            + codec.encode_chunk(make_chunk(units=3))
        )
        assert codec.decode_chunks(blob) == [first]


class TestEncodeChunks:
    def test_multi_chunk_roundtrip(self):
        items = [make_chunk(units=u, seed=u) for u in (1, 2, 3)]
        assert codec.decode_chunks(codec.encode_chunks(items)) == items

    def test_pad_to_inserts_sentinel(self):
        items = [make_chunk(units=1)]
        blob = codec.encode_chunks(items, pad_to=200)
        assert len(blob) == 200
        assert codec.decode_chunks(blob) == items

    def test_pad_to_small_slack_zero_fills(self):
        items = [make_chunk(units=1)]
        natural = len(codec.encode_chunks(items))
        blob = codec.encode_chunks(items, pad_to=natural + 10)
        assert len(blob) == natural + 10
        assert codec.decode_chunks(blob) == items

    def test_pad_to_exact_fit(self):
        items = [make_chunk(units=1)]
        natural = len(codec.encode_chunks(items))
        assert codec.encode_chunks(items, pad_to=natural) == codec.encode_chunks(items)

    def test_pad_to_too_small_raises(self):
        with pytest.raises(CodecError):
            codec.encode_chunks([make_chunk(units=10)], pad_to=20)


class TestPacketHeader:
    def test_roundtrip(self):
        blob = codec.encode_packet_header(flags=5)
        assert codec.decode_packet_header(blob) == 5

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            codec.decode_packet_header(b"\x00\x00\x00\x00")

    def test_short_header(self):
        with pytest.raises(CodecError):
            codec.decode_packet_header(b"\xc4")
