"""The wire layout is inferred from what the encoders write, not read
from source.

For each table of :mod:`repro.core.wire_table` the code that owns the
region — ``encode_chunk``, ``encode_packet_header``,
``build_signaling_chunk`` — is run with one field at a time at 0 and at
all-ones of its full width; the bytes that differ are that field's
``(offset, width)``.  Flag bits come out the same way, one bit at a
time, and are compared with the ``bitN=NAME`` notes of the row that
documents them; the chunk header's "ED follows" bit is read off a final
DATA chunk encoded with and without its TPDU's ED chunk behind it.  The
bytes no settable field reaches must be exactly the flag, reserved and
constant rows.  Decoding runs the other way: a region with exactly one
table field set decodes to exactly that label field.

This is Huntsman's "Unshuffling fields in data formats" (PAPERS.md) in
its simplest form: the fields are known, their positions are inferred
from the wire.  It is what a format-string comparison cannot see — an
encoder packing ``t_sn`` where ``c_sn`` belongs keeps the format intact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.core.chunk import Chunk
from repro.core.codec import (
    PACKET_MAGIC,
    decode_chunk,
    decode_chunks,
    decode_packet_header,
    encode_chunk,
    encode_chunks,
    encode_packet_header,
)
from repro.core.errors import CodecError, SignalingError
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.core.wire_table import (
    CHUNK_HEADER,
    PACKET_ENVELOPE,
    SIGNALING_PAYLOAD,
    WireField,
    WireTable,
)
from repro.transport.connection import (
    ConnectionConfig,
    build_signaling_chunk,
    parse_signaling_chunk,
)
from repro.wsc.invariant import EdPayload, build_ed_chunk

#: The record's fields in ``Chunk._make`` order.
RECORD = (
    "type", "size", "length", "c_id", "c_sn", "c_st",
    "t_id", "t_sn", "t_st", "x_id", "x_sn", "x_st", "payload",
)


def encode_header(ed_follows: bool = False, **label: object) -> bytes:
    """The encoding of a chunk whose fields are 0 except *label* (with
    no payload given, the 44 header bytes alone); with *ed_follows*, as
    it goes on the wire with its TPDU's ED chunk right behind it."""
    fields: dict[str, object] = {**dict.fromkeys(RECORD, 0), "payload": b"", **label}
    chunk = Chunk._make(*(fields[name] for name in RECORD))
    if not ed_follows:
        return encode_chunk(chunk)
    ed = build_ed_chunk(chunk.c_id, chunk.t_id, EdPayload(0, 0, 0))
    return encode_chunks([chunk, ed])[: -len(ed.payload)]


def encode_envelope(flags: int = 0) -> bytes:
    return encode_packet_header(flags)


def encode_signaling(**config: object) -> bytes:
    zero: dict[str, object] = {"connection_id": 0, "unit_words": 0, "tpdu_units": 0}
    return build_signaling_chunk(ConnectionConfig(**{**zero, **config})).payload


@dataclass(frozen=True)
class Region:
    """One table and the encoder that owns its bytes."""

    table: WireTable
    encode: Callable[..., bytes]
    #: table row → the encoder argument that carries it.
    fields: dict[str, str]
    #: the row whose notes document the flag bits, and
    #: documented flag name → the encoder argument that sets it.
    flag_row: str
    flags: dict[str, str]
    #: flag name → the fields a flag needs set before it can be on the wire.
    flag_context: dict[str, dict[str, object]] = field(default_factory=dict)

    def row(self, name: str) -> WireField:
        return next(row for row in self.table.fields if row.name == name)


CHUNK_FIELDS = {
    "TYPE": "type", "SIZE": "size", "LEN": "length",
    "C.ID": "c_id", "C.SN": "c_sn", "T.ID": "t_id",
    "T.SN": "t_sn", "X.ID": "x_id", "X.SN": "x_sn",
}
CHUNK_FLAGS = {"C.ST": "c_st", "T.ST": "t_st", "X.ST": "x_st"}
ED_FOLLOWS = "ED follows (Appendix A)"
FINAL_DATA = {"type": ChunkType.DATA, "size": 1, "t_st": True}


REGIONS = [
    Region(
        CHUNK_HEADER, encode_header, CHUNK_FIELDS, "FLAGS",
        {**CHUNK_FLAGS, ED_FOLLOWS: "ed_follows"}, {ED_FOLLOWS: FINAL_DATA},
    ),
    Region(PACKET_ENVELOPE, encode_envelope, fields={"FLAGS": "flags"}, flag_row="", flags={}),
    Region(
        SIGNALING_PAYLOAD,
        encode_signaling,
        fields={"C.ID": "connection_id", "UNIT_WORDS": "unit_words", "TPDU_UNITS": "tpdu_units"},
        flag_row="",
        flags={},
    ),
]


def all_ones(row: WireField) -> int:
    return (1 << 8 * row.width) - 1


def span(zero: bytes, changed: bytes) -> tuple[int, int]:
    """``(offset, width)`` of the one contiguous run where two encodings differ."""
    assert len(zero) == len(changed)
    diff = [i for i, (a, b) in enumerate(zip(zero, changed)) if a != b]
    assert diff, "the field never reached the wire"
    assert diff == list(range(diff[0], diff[-1] + 1)), f"field scattered over bytes {diff}"
    return diff[0], len(diff)


def documented_bits(row: WireField) -> dict[str, tuple[int, int]]:
    """The ``bitN=NAME`` notes of a row as ``{NAME: (byte, mask)}`` —
    bit N of the row's big-endian integer."""
    return {
        name.strip(): (row.offset + row.width - 1 - int(bit) // 8, 1 << int(bit) % 8)
        for bit, name in re.findall(r"bit(\d+)=([^,]+)", row.notes)
    }


def all_ones_in(wire: bytes, row: WireField) -> bytes:
    """*wire* with *row* set to all-ones and every other byte kept."""
    return wire[:row.offset] + b"\xff" * row.width + wire[row.offset + row.width:]


def bit_in(wire: bytes, byte: int, mask: int) -> bytes:
    return wire[:byte] + bytes([wire[byte] | mask]) + wire[byte + 1:]


def inferred_layout(region: Region) -> dict[str, tuple[int, int]]:
    """What the encoder writes: ``(offset, width)`` per field and
    ``(byte, mask)`` per flag bit."""
    zero = region.encode()
    assert len(zero) == region.table.total_bytes
    layout = {
        name: span(zero, region.encode(**{arg: all_ones(region.row(name))}))
        for name, arg in region.fields.items()
    }
    for name, arg in region.flags.items():
        context = region.flag_context.get(name, {})
        before, encoded = region.encode(**context), region.encode(**context, **{arg: True})
        byte, width = span(before, encoded)
        assert width == 1
        layout[name] = (byte, before[byte] ^ encoded[byte])
    return layout


def documented_layout(region: Region) -> dict[str, tuple[int, int]]:
    """The same, read off the table rows (flag bits are big-endian
    within their row)."""
    layout = {
        name: (region.row(name).offset, region.row(name).width) for name in region.fields
    }
    if region.flag_row:
        layout.update(documented_bits(region.row(region.flag_row)))
    return layout


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.table.table_id)
def test_encoder_writes_each_field_where_its_row_says(region):
    assert inferred_layout(region) == documented_layout(region)


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.table.table_id)
def test_bytes_no_field_reaches_are_the_flag_reserved_and_constant_rows(region):
    layout = inferred_layout(region)
    reached = {
        i
        for name in region.fields
        for i in range(layout[name][0], layout[name][0] + layout[name][1])
    }
    unreached = set(range(region.table.total_bytes)) - reached
    other_rows = [row for row in region.table.fields if row.name not in region.fields]
    assert unreached == {
        i for row in other_rows for i in range(row.offset, row.offset + row.width)
    }
    zero = region.encode()
    for row in other_rows:
        if row.notes.startswith("zero on the wire"):
            assert zero[row.offset:row.offset + row.width] == bytes(row.width)


def changed_fields(before: object, after: object, names: tuple[str, ...]) -> dict[str, object]:
    return {
        name: getattr(after, name)
        for name in names
        if getattr(after, name) != getattr(before, name)
    }


def test_chunk_header_decodes_one_field_to_one_label_field():
    # TYPE, SIZE and LEN frame the chunk itself (an all-ones TYPE is no
    # ChunkType, an all-ones LEN a 16 GiB payload): the label is the rest.
    region = REGIONS[0]
    base = encode_header(type=ChunkType.DATA, size=1, length=1, payload=bytes(4))
    reference, _ = decode_chunk(base)
    for name, attr in CHUNK_FIELDS.items():
        if name not in ("TYPE", "SIZE", "LEN"):
            chunk, _ = decode_chunk(all_ones_in(base, region.row(name)))
            assert changed_fields(reference, chunk, RECORD) == {
                attr: all_ones(region.row(name))
            }, name
    for name, (byte, mask) in documented_bits(region.row(region.flag_row)).items():
        if name in CHUNK_FLAGS:
            chunk, _ = decode_chunk(bit_in(base, byte, mask))
            assert changed_fields(reference, chunk, RECORD) == {CHUNK_FLAGS[name]: True}, name


def test_ed_follows_decodes_to_the_ed_chunk_build_ed_chunk_makes():
    byte, mask = documented_bits(REGIONS[0].row("FLAGS"))[ED_FOLLOWS]
    label = {**FINAL_DATA, "length": 1, "payload": bytes(4), "c_id": 7, "t_id": 9}
    final, _ = decode_chunk(encode_header(**label))
    tail = EdPayload(1, 2, 3).encode()
    flagged = bit_in(encode_header(**label), byte, mask)
    assert decode_chunks(flagged + tail) == [final, build_ed_chunk(7, 9, EdPayload(1, 2, 3))]
    with pytest.raises(CodecError, match="truncated ED chunk"):
        decode_chunks(flagged + tail[:-1])
    not_final = bit_in(encode_header(**{**label, "t_st": False}), byte, mask)
    with pytest.raises(CodecError, match="ED-follows flag off T.ST DATA"):
        decode_chunks(not_final + tail)


def test_envelope_decodes_its_flags_and_carries_the_magic():
    magic, flags = REGIONS[1].row("MAGIC"), REGIONS[1].row("FLAGS")
    zero = encode_envelope()
    assert int(magic.notes, 16) == PACKET_MAGIC
    assert zero[magic.offset:magic.offset + magic.width] == PACKET_MAGIC.to_bytes(
        magic.width, "big"
    )
    assert decode_packet_header(zero) == 0
    assert decode_packet_header(all_ones_in(zero, flags)) == all_ones(flags)


def test_signaling_payload_decodes_one_field_to_one_config_field():
    region = REGIONS[2]
    base = build_signaling_chunk(ConnectionConfig(connection_id=0, unit_words=0, tpdu_units=0))
    reference = parse_signaling_chunk(base)
    names = ("connection_id", "unit_words", "tpdu_units")
    c_id = region.row("C.ID")

    def parse(wire: bytes) -> ConnectionConfig:
        """*wire* as the payload of a SIG chunk whose header names its C.ID."""
        header_c_id = int.from_bytes(wire[c_id.offset:c_id.offset + c_id.width], "big")
        return parse_signaling_chunk(
            base.replace(payload=wire, c=FramingTuple(header_c_id, 0, False))
        )

    for name, attr in region.fields.items():
        config = parse(all_ones_in(base.payload, region.row(name)))
        assert changed_fields(reference, config, names) == {attr: all_ones(region.row(name))}
    for row in region.table.fields:
        if row.notes.startswith("zero on the wire"):
            with pytest.raises(SignalingError):
                parse(all_ones_in(base.payload, row))
