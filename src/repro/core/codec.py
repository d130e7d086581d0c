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
"""

from __future__ import annotations

import struct

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

_TYPES = {int(member): member for member in ChunkType}

#: 44 zero bytes: TYPE=0 and LEN=0 both mark "no more chunks".
SENTINEL_HEADER = b"\x00" * HEADER_BYTES

#: Packet envelope magic ("chunk" / SIGCOMM '93).
PACKET_MAGIC = 0xC493

_PACKET_HEADER = struct.Struct(PACKET_ENVELOPE.struct_format)


def encode_chunk(chunk: Chunk) -> bytes:
    """Serialize one chunk (header + payload) to bytes."""
    ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
    flags = (
        (_FLAG_C_ST if c_st else 0) | (_FLAG_T_ST if t_st else 0) | (_FLAG_X_ST if x_st else 0)
    )
    header = _HEADER.pack(ctype, flags, size, length, c_id, c_sn, t_id, t_sn, x_id, x_sn)
    return header + payload


def decode_chunk(data: bytes, offset: int = 0) -> tuple[Chunk | None, int]:
    """Decode one chunk starting at *offset*.

    Returns ``(chunk, next_offset)``.  Returns ``(None, next_offset)``
    when a sentinel header (TYPE=0 or LEN=0) is found, or when fewer
    than a full header's worth of bytes remain (trailing padding).

    Raises:
        CodecError: on malformed headers or truncated payloads.
    """
    if len(data) - offset < HEADER_BYTES:
        return None, len(data)
    header = _HEADER.unpack_from(data, offset)
    raw_type, flags, size, length, c_id, c_sn, t_id, t_sn, x_id, x_sn = header
    if raw_type == 0 or length == 0:
        return None, offset + HEADER_BYTES
    chunk_type = _TYPES.get(raw_type)
    if chunk_type is None:
        raise CodecError(f"unknown chunk TYPE {raw_type:#x} at offset {offset}")
    if size == 0:
        raise CodecError(f"SIZE=0 in non-sentinel chunk at offset {offset}")
    unit_bytes = size * WORD_BYTES if chunk_type is ChunkType.DATA else WORD_BYTES
    payload_len = length * unit_bytes
    start = offset + HEADER_BYTES
    end = start + payload_len
    if end > len(data):
        raise CodecError(
            f"truncated chunk payload: need {payload_len} bytes at offset "
            f"{start}, have {len(data) - start}"
        )
    # Unsigned fields of fixed width, TYPE / SIZE / LEN / payload length
    # checked above: nothing is left for the validating constructor.
    chunk = Chunk._make(
        chunk_type, size, length,
        c_id, c_sn, bool(flags & _FLAG_C_ST),
        t_id, t_sn, bool(flags & _FLAG_T_ST),
        x_id, x_sn, bool(flags & _FLAG_X_ST),
        bytes(data[start:end]),
    )
    return chunk, end


def encode_chunks(chunks: list[Chunk], pad_to: int | None = None) -> bytes:
    """Serialize a chunk sequence, optionally padding to a fixed size.

    When *pad_to* is given and slack remains, a sentinel header is
    written after the last chunk (if it fits) followed by zero fill, so
    fixed-size envelopes (e.g. cell-like links) decode unambiguously.
    """
    body = b"".join(encode_chunk(chunk) for chunk in chunks)
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
    chunks: list[Chunk] = []
    while offset < len(data):
        chunk, offset = decode_chunk(data, offset)
        if chunk is None:
            break
        chunks.append(chunk)
    return chunks


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
