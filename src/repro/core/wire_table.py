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
- ``docs/wire-format.md`` embeds the rendered tables between
  ``<!-- wire-tables:begin -->`` / ``<!-- wire-tables:end -->`` markers;
  ``python -m repro.core.wire_table --write`` regenerates the block and
  ``--check`` (run by ``tests/core/test_wire_table.py``) fails when the
  committed block is stale.
- Import-time asserts pin the derived byte totals to the constants in
  :mod:`repro.core.types`, so this module cannot itself drift from the
  widths the codec is tested against.
"""

from __future__ import annotations

import struct
import sys
from typing import NamedTuple, Sequence

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
    "BLOCK_BEGIN",
    "BLOCK_END",
    "render_markdown",
    "docs_block",
    "extract_block",
    "main",
]

#: struct format character → byte width, for the unsigned big-endian
#: integer types the wire formats use.
_FMT_WIDTHS = {"B": 1, "H": 2, "I": 4, "Q": 8}

BLOCK_BEGIN = "<!-- wire-tables:begin -->"
BLOCK_END = "<!-- wire-tables:end -->"


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
        WireField("FLAGS", 1, 1, "B", "bit0=C.ST, bit1=T.ST, bit2=X.ST"),
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
        WireField("SIG_FLAGS", 8, 2, "H", "bit0=implicit T.ID, bit1=regen SNs"),
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


def render_markdown(table: WireTable) -> str:
    """One table as GitHub markdown (deterministic, trailing-newline-free)."""
    lines = [
        f"### `{table.table_id}` — {table.title} "
        f"({table.total_bytes} bytes, `\"{table.struct_format}\"`)",
        "",
        "| offset | field | bytes | struct | notes |",
        "|---|---|---|---|---|",
    ]
    for field in table.fields:
        lines.append(
            f"| {field.offset} | {field.name} | {field.width} "
            f"| `{field.fmt}` | {field.notes} |"
        )
    return "\n".join(lines)


def docs_block() -> str:
    """The full generated block, marker lines included."""
    parts = [
        BLOCK_BEGIN,
        "<!-- Generated by `python -m repro.core.wire_table --write`;",
        "     checked by tests/core/test_wire_table.py. Do not edit. -->",
    ]
    for table_id in sorted(TABLES):
        parts.append("")
        parts.append(render_markdown(TABLES[table_id]))
    parts.append("")
    parts.append(BLOCK_END)
    return "\n".join(parts)


def _splice(text: str, block: str) -> str:
    """Replace (or append) the generated block inside *text*."""
    begin = text.find(BLOCK_BEGIN)
    end = text.find(BLOCK_END)
    if begin != -1 and end != -1 and end > begin:
        return text[:begin] + block + text[end + len(BLOCK_END):]
    suffix = "" if text.endswith("\n") else "\n"
    return text + suffix + "\n## Header-width tables (generated)\n\n" + block + "\n"


def extract_block(text: str) -> str | None:
    """The committed generated block of a docs file, or None."""
    begin = text.find(BLOCK_BEGIN)
    end = text.find(BLOCK_END)
    if begin == -1 or end == -1 or end < begin:
        return None
    return text[begin:end + len(BLOCK_END)]


def main(argv: Sequence[str] | None = None) -> int:
    # The codec imports this module on the runtime path; the CLI's
    # imports stay here so importing the tables does not pay for them.
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.wire_table",
        description="render / refresh the generated header-width tables",
    )
    parser.add_argument(
        "--docs",
        type=Path,
        default=Path("docs") / "wire-format.md",
        help="docs file carrying the generated block",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite the generated block in --docs (default: print it)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the committed block is stale",
    )
    args = parser.parse_args(argv)
    block = docs_block()
    if args.check:
        committed = extract_block(args.docs.read_text(encoding="utf-8"))
        if committed != block:
            print(f"wire_table: generated block in {args.docs} is stale", file=sys.stderr)
            return 1
        print(f"wire_table: {args.docs} is up to date")
        return 0
    if args.write:
        text = args.docs.read_text(encoding="utf-8")
        args.docs.write_text(_splice(text, block), encoding="utf-8")
        print(f"wire_table: wrote generated block to {args.docs}")
        return 0
    print(block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
