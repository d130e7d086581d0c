"""The single source of truth for wire-format field widths.

Every fixed-width wire region is one :class:`WireTable` of
:class:`WireField` rows here, and everything else is derived from it —
related work on recovering wire-format structure (Huntsman 2019,
"Unshuffling fields in data formats") is a catalogue of what happens
when hand-kept copies of a layout drift.

Consumers:

- :mod:`repro.core.codec` and :mod:`repro.transport.connection` build
  their ``struct.Struct`` objects from :attr:`WireTable.struct_format`,
  so there is one format string per region;
  ``tests/core/test_wire_layout.py`` infers every field's offset and
  width (and every flag bit) from live encodings and asserts them equal
  to these rows.
- ``docs/wire-format.md`` embeds the tables as a generated block, which
  ``tests/test_docs_blocks.py`` holds to these rows.
- Import-time asserts pin the derived byte totals to the constants in
  :mod:`repro.core.types`, so this module cannot itself drift from the
  widths the codec is tested against.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.core.types import (
    HEADER_BYTES,
    ID_LIMIT,
    LEN_LIMIT,
    PACKET_HEADER_BYTES,
    SIZE_LIMIT,
    SN_LIMIT,
)

__all__ = [
    "WireField",
    "WireTable",
    "CHUNK_HEADER",
    "PACKET_ENVELOPE",
    "SIGNALING_PAYLOAD",
    "TABLES",
]

#: struct format character → byte width, for the unsigned big-endian
#: integer types the wire formats use.
_FMT_WIDTHS = {"B": 1, "H": 2, "I": 4, "Q": 8}


class WireField(NamedTuple):
    """One fixed-width field: name, byte offset, width, struct char."""

    name: str
    offset: int
    width: int
    fmt: str
    notes: str = ""


class WireTable(NamedTuple):
    """One contiguous fixed-field wire region (:data:`TABLES` admits it
    only once its rows tile)."""

    table_id: str
    title: str
    fields: tuple[WireField, ...]

    @property
    def struct_format(self) -> str:
        """The big-endian ``struct`` format string for the region."""
        return ">" + "".join(field.fmt for field in self.fields)

    @property
    def total_bytes(self) -> int:
        return sum(field.width for field in self.fields)


def _tiled(table: WireTable) -> WireTable:
    """*table*, once its rows tile from offset 0, each as wide as its
    struct char."""
    offset = 0
    for field in table.fields:
        if field.offset != offset:
            raise ValueError(
                f"{table.table_id}: field {field.name} at offset "
                f"{field.offset}, expected {offset} (fields must tile)"
            )
        if _FMT_WIDTHS.get(field.fmt) != field.width:
            raise ValueError(
                f"{table.table_id}: field {field.name} is {field.width} "
                f"bytes but struct char {field.fmt!r} is "
                f"{_FMT_WIDTHS.get(field.fmt)}"
            )
        offset += field.width
    return table


CHUNK_HEADER = WireTable(
    table_id="chunk-header",
    title="Fixed-field chunk header",
    fields=(
        WireField("TYPE", 0, 1, "B", "ChunkType; 0 reserved as the end-of-packet sentinel"),
        WireField(
            "FLAGS", 1, 1, "B", "bit0=C.ST, bit1=T.ST, bit2=X.ST, bit3=ED follows (Appendix A)"
        ),
        WireField("SIZE", 2, 2, "H", "32-bit words per atomic data unit; 0 invalid"),
        WireField("LEN", 4, 4, "I", "atomic units (data) / words (control); 0 marks the sentinel"),
        WireField("C.ID", 8, 4, "I", "connection id"),
        WireField("C.SN", 12, 8, "Q", "connection sequence number of the first unit"),
        WireField("T.ID", 20, 4, "I", "transport-PDU id"),
        WireField("T.SN", 24, 8, "Q", "TPDU sequence number of the first unit"),
        WireField("X.ID", 32, 4, "I", "external-PDU (application frame) id"),
        WireField("X.SN", 36, 8, "Q", "external-PDU sequence number of the first unit"),
    ),
)

PACKET_ENVELOPE = WireTable(
    table_id="packet-envelope",
    title="Packet envelope header",
    fields=(
        WireField("MAGIC", 0, 2, "H", "0xC493"),
        WireField("FLAGS", 2, 1, "B", ""),
        WireField("RESERVED", 3, 1, "B", "zero on the wire"),
    ),
)

SIGNALING_PAYLOAD = WireTable(
    table_id="signaling-payload",
    title="Connection-establishment signaling payload",
    fields=(
        WireField("C.ID", 0, 4, "I", "connection id being established"),
        WireField("UNIT_WORDS", 4, 2, "H", "SIZE for DATA chunks"),
        WireField("TPDU_UNITS", 6, 2, "H", "TPDU length in atomic units"),
        WireField("SIG_FLAGS", 8, 2, "H", "zero on the wire (no transfer compresses headers)"),
        WireField("RESERVED0", 10, 1, "B", "zero on the wire"),
        WireField("RESERVED1", 11, 1, "B", "zero on the wire"),
    ),
)

TABLES: dict[str, WireTable] = {
    table.table_id: _tiled(table)
    for table in (CHUNK_HEADER, PACKET_ENVELOPE, SIGNALING_PAYLOAD)
}

# The derived totals must agree with the constants the codec asserts
# against — if these fire, the authoritative table itself has drifted.
assert CHUNK_HEADER.total_bytes == HEADER_BYTES
assert PACKET_ENVELOPE.total_bytes == PACKET_HEADER_BYTES
assert struct.calcsize(CHUNK_HEADER.struct_format) == HEADER_BYTES
assert struct.calcsize(SIGNALING_PAYLOAD.struct_format) == SIGNALING_PAYLOAD.total_bytes
# The limits the validating constructors hold a label to are these widths.
_LIMITS = {"SIZE": SIZE_LIMIT, "LEN": LEN_LIMIT, "ID": ID_LIMIT, "SN": SN_LIMIT}
assert all(
    1 << 8 * f.width == _LIMITS[f.name.rpartition(".")[2]] for f in CHUNK_HEADER.fields[2:]
)
