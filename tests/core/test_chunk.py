"""Unit tests for the Chunk model."""

import pytest

from repro.core.chunk import Chunk
from repro.core.errors import ChunkError
from repro.core.tuples import FramingTuple
from repro.core.types import HEADER_BYTES, ChunkType

from tests.helpers import make_chunk, make_payload


class TestValidation:
    def test_basic_data_chunk(self):
        chunk = make_chunk(units=4)
        assert chunk.is_data
        assert not chunk.is_control
        assert chunk.payload_bytes == 16

    def test_size_zero_rejected(self):
        with pytest.raises(ChunkError):
            make_chunk(units=1, size=0)

    def test_len_zero_rejected(self):
        with pytest.raises(ChunkError):
            Chunk(
                type=ChunkType.DATA,
                size=1,
                length=0,
                c=FramingTuple(1, 0),
                t=FramingTuple(1, 0),
                x=FramingTuple(1, 0),
                payload=b"",
            )

    def test_payload_length_must_match_len_times_size(self):
        with pytest.raises(ChunkError):
            Chunk(
                type=ChunkType.DATA,
                size=2,
                length=3,
                c=FramingTuple(1, 0),
                t=FramingTuple(1, 0),
                x=FramingTuple(1, 0),
                payload=b"x" * 20,  # needs 24
            )

    def test_control_payload_counts_words(self):
        chunk = Chunk(
            type=ChunkType.ERROR_DETECTION,
            size=1,
            length=3,
            c=FramingTuple(1, 0),
            t=FramingTuple(1, 0),
            x=FramingTuple(0, 0),
            payload=b"\x00" * 12,
        )
        assert chunk.is_control
        assert chunk.payload_bytes == 12


class TestAccounting:
    def test_unit_bytes(self):
        assert make_chunk(units=2, size=2).unit_bytes == 8

    def test_wire_bytes_includes_header(self):
        chunk = make_chunk(units=5)
        assert chunk.wire_bytes == HEADER_BYTES + 20

    def test_words(self):
        assert make_chunk(units=3, size=2).words == 6


class TestUnitAccess:
    def test_unit_slicing(self):
        payload = make_payload(4, size=2)
        chunk = make_chunk(units=4, size=2, payload=payload)
        assert chunk.unit(0) == payload[:8]
        assert chunk.unit(3) == payload[24:32]

    def test_unit_out_of_range(self):
        chunk = make_chunk(units=2)
        with pytest.raises(IndexError):
            chunk.unit(2)
        with pytest.raises(IndexError):
            chunk.unit(-1)

    def test_units_concatenate_to_payload(self):
        chunk = make_chunk(units=6, size=3)
        assert b"".join(chunk.units()) == chunk.payload


class TestTupleAccess:
    def test_tuple_for_levels(self):
        chunk = make_chunk(c_id=1, t_id=2, x_id=3)
        assert chunk.tuple_for("c").ident == 1
        assert chunk.tuple_for("t").ident == 2
        assert chunk.tuple_for("x").ident == 3

    def test_tuple_for_unknown_level(self):
        with pytest.raises(ChunkError):
            make_chunk().tuple_for("q")

    def test_with_tuples_replaces_selectively(self):
        chunk = make_chunk()
        new = chunk.with_tuples(t=FramingTuple(99, 5, True))
        assert new.t == FramingTuple(99, 5, True)
        assert new.c == chunk.c
        assert new.x == chunk.x
        assert new.payload == chunk.payload

    def test_describe_mentions_all_fields(self):
        text = make_chunk(units=7).describe()
        assert "TYPE=DATA" in text
        assert "LEN=7" in text
