"""Binary wire format for chunks and packets.

This is the "simple version of chunks ... easy to parse because of their
fixed-field format" (Appendix A): a 44-byte chunk header followed by
``LEN * SIZE * 4`` payload bytes (``LEN * 4`` for control chunks).  The
field layout is :data:`repro.core.wire_table.CHUNK_HEADER` — the struct
below is built from it, and its rendering is the generated block at the
end of ``docs/wire-format.md``.

All integers are big-endian (network byte order).  A packet is a 4-byte
envelope header followed by whole chunks; a LEN=0 sentinel header ends
the chunk list early when the packet carries trailing padding
(Section 2: "A chunk with LEN=0 is placed after the last valid chunk in
the packet").

"The ED chunk does not require a chunk header" (Appendix A): a TPDU's ED
chunk as ``build_ed_chunk`` makes it, right behind the DATA chunk with
T.ST, is that header's FLAGS bit3 plus its 12 payload bytes.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from repro.core.chunk import Chunk
from repro.core.errors import CodecError
from repro.core.types import (
    HEADER_BYTES,
    PACKET_HEADER_BYTES,
    WORD_BYTES,
    ChunkType,
)
from repro.core.wire_table import CHUNK_HEADER, PACKET_ENVELOPE

__all__ = [
    "encode_chunk",
    "decode_chunk",
    "encode_chunks",
    "decode_chunks",
    "SENTINEL_HEADER",
    "PACKET_MAGIC",
    "encode_packet_header",
    "decode_packet_header",
]

_HEADER = struct.Struct(CHUNK_HEADER.struct_format)

_FLAG_C_ST = 0x01
_FLAG_T_ST = 0x02
_FLAG_X_ST = 0x04
_FLAG_ED_FOLLOWS = 0x08
#: FLAGS byte -> (C.ST, T.ST, X.ST, ED follows); bits above the four are ignored.
_ST_BITS = tuple(
    (bool(flags & _FLAG_C_ST), bool(flags & _FLAG_T_ST), bool(flags & _FLAG_X_ST),
     bool(flags & _FLAG_ED_FOLLOWS))
    for flags in range(256)
)

_TYPES = {int(member): member for member in ChunkType}
_DATA = ChunkType.DATA
_ED = ChunkType.ERROR_DETECTION
_ED_BYTES = 3 * WORD_BYTES  # P0, P1 and the TPDU's unit count
_new = tuple.__new__

#: Appendix A's one rule, which :func:`encode_chunks` and
#: ``packet.pack_chunks`` both check inline: the chunk right behind a DATA
#: chunk with T.ST rides header-less when ``ed_fields(chunk) ==
#: ED_CONVENTION + (c_id, t_id)`` with that DATA chunk's IDs — its TPDU's
#: ED chunk as ``build_ed_chunk`` makes it.  It costs its payload alone.
ed_fields = itemgetter(0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 3, 6)
ED_CONVENTION = (_ED, 1, 3, 0, False, 0, False, 0, 0, False)

#: 44 zero bytes: TYPE=0 and LEN=0 both mark "no more chunks".
SENTINEL_HEADER = b"\x00" * HEADER_BYTES

#: Packet envelope magic ("chunk" / SIGCOMM '93).
PACKET_MAGIC = 0xC493

_PACKET_HEADER = struct.Struct(PACKET_ENVELOPE.struct_format)


def encode_chunk(chunk: Chunk) -> bytes:
    """Serialize one chunk (header + payload) to bytes."""
    return encode_chunks([chunk])


def decode_chunk(data: bytes, offset: int = 0) -> tuple[Chunk | None, int]:
    """Decode one chunk starting at *offset*.

    Returns ``(chunk, next_offset)``.  Returns ``(None, next_offset)``
    when a sentinel header (TYPE=0 or LEN=0) is found, or when fewer
    than a full header's worth of bytes remain (trailing padding).  A
    DATA chunk flagged "ED follows" is returned without the ED chunk
    behind it, *next_offset* past both; :func:`decode_chunks` returns both.

    Raises:
        CodecError: on malformed headers or truncated payloads.
    """
    chunks, end = _decode(data, offset, 1)
    return (chunks[0] if chunks else None), end


def encode_chunks(chunks: list[Chunk], pad_to: int | None = None) -> bytes:
    """Serialize a chunk sequence, optionally padding to a fixed size.

    When *pad_to* is given and slack remains, a sentinel header is
    written after the last chunk (if it fits) followed by zero fill, so
    fixed-size envelopes (e.g. cell-like links) decode unambiguously.
    """
    parts = []
    follows = False
    for index, chunk in enumerate(chunks, 1):  # the one encoder: header, then payload, per chunk
        ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
        if follows:  # the ED chunk the previous header's bit3 stands for
            parts.append(payload)
            follows = False
            continue
        follows = t_st and ctype == _DATA and index < len(chunks) and (
            ed_fields(chunks[index]) == ED_CONVENTION + (c_id, t_id)
        )
        flags = (
            (_FLAG_C_ST if c_st else 0) | (_FLAG_T_ST if t_st else 0) | (_FLAG_X_ST if x_st else 0)
            | (_FLAG_ED_FOLLOWS if follows else 0)
        )
        parts.append(_HEADER.pack(ctype, flags, size, length, c_id, c_sn, t_id, t_sn, x_id, x_sn))
        parts.append(payload)
    body = b"".join(parts)
    if pad_to is None:
        return body
    if len(body) > pad_to:
        raise CodecError(f"chunks occupy {len(body)} bytes > pad_to={pad_to}")
    slack = pad_to - len(body)
    if slack == 0:
        return body
    if slack >= HEADER_BYTES:
        return body + SENTINEL_HEADER + b"\x00" * (slack - HEADER_BYTES)
    return body + b"\x00" * slack


def decode_chunks(data: bytes, offset: int = 0) -> list[Chunk]:
    """Decode every chunk from *data*, honouring the sentinel."""
    return _decode(data, offset, len(data))[0]  # a chunk is longer than one byte


def _decode(data: bytes, offset: int, most: int) -> tuple[list[Chunk], int]:
    """The parser: up to *most* chunks from *offset*, each unpacked, checked
    and made into its record in one step, and the offset where it stopped
    (past a sentinel header; the end of *data* at trailing padding)."""
    chunks: list[Chunk] = []
    end_of_data = len(data)
    for _ in range(most):
        if end_of_data - offset < HEADER_BYTES:
            return chunks, end_of_data
        header = _HEADER.unpack_from(data, offset)
        raw_type, flags, size, length, c_id, c_sn, t_id, t_sn, x_id, x_sn = header
        if raw_type == 0 or length == 0:
            return chunks, offset + HEADER_BYTES
        chunk_type = _TYPES.get(raw_type)
        if chunk_type is None:
            raise CodecError(f"unknown chunk TYPE {raw_type:#x} at offset {offset}")
        if size == 0:
            raise CodecError(f"SIZE=0 in non-sentinel chunk at offset {offset}")
        start = offset + HEADER_BYTES
        offset = start + length * (size * WORD_BYTES if chunk_type is _DATA else WORD_BYTES)
        if offset > end_of_data:
            raise CodecError(
                f"truncated chunk payload: need {offset - start} bytes at offset "
                f"{start}, have {end_of_data - start}"
            )
        c_st, t_st, x_st, ed_follows = _ST_BITS[flags]
        # Unsigned fields of fixed width, TYPE / SIZE / LEN / payload length
        # checked above: nothing is left for the validating constructor.
        chunks.append(_new(Chunk, (
            chunk_type, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st,
            bytes(data[start:offset]),
        )))
        if ed_follows:  # the TPDU's ED chunk, rebuilt as build_ed_chunk makes it
            if not t_st or chunk_type is not _DATA:
                raise CodecError(f"ED-follows flag off T.ST DATA at offset {start - HEADER_BYTES}")
            start, offset = offset, offset + _ED_BYTES
            if offset > end_of_data:
                raise CodecError(f"truncated ED chunk: need {_ED_BYTES} bytes at offset {start}")
            chunks.append(_new(Chunk, (
                _ED, 1, 3, c_id, 0, False, t_id, 0, False, 0, 0, False, bytes(data[start:offset]),
            )))
    return chunks, offset


def encode_packet_header(flags: int = 0) -> bytes:
    """Encode the 4-byte packet envelope header."""
    return _PACKET_HEADER.pack(PACKET_MAGIC, flags, 0)


def decode_packet_header(data: bytes) -> int:
    """Validate the envelope header; returns the flags byte."""
    if len(data) < PACKET_HEADER_BYTES:
        raise CodecError("packet shorter than envelope header")
    magic, flags, _reserved = _PACKET_HEADER.unpack_from(data, 0)
    if magic != PACKET_MAGIC:
        raise CodecError(f"bad packet magic {magic:#06x}")
    return flags
