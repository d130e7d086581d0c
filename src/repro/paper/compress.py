"""Invertible chunk-header compression (Appendix A).

"The chunk syntax transformations that we discuss in this section are
invertible, because they allow recovery of the original chunk syntax.
Protocols can be defined to use the simplest form of chunks and chunk
syntax transformations can be used to increase the bandwidth efficiency
of chunk headers without changing the basic operation of the protocol."

Implemented transforms:

- **SIZE elision** — the per-TYPE SIZE value is carried once by
  signaling at connection setup instead of in every header.
- **C.ID elision** — a non-multiplexed channel carries one connection,
  so the C.ID travels by signaling and is dropped from headers.
- **Implicit T.ID** (Figure 7) — "the value of (C.SN − T.SN) is
  identical for each chunk of a TPDU, and this difference can be used in
  place of an explicit T.ID field."  DATA chunks relabelled so that each
  TPDU's id is the C.SN of its first unit (:func:`implicit_tpdu_ids`)
  lose nothing; the decoder reconstructs T.ID exactly.
- **SN regeneration** — on a channel that preserves order, SNs (and the
  X.ID) are omitted and regenerated at the receiver with counters; the
  transmitter resynchronizes by sending explicit values "at the
  beginning of each PDU" and whenever its own prediction would be wrong.

ED-header elision — "because the chunk following the last TPDU DATA
chunk is always a TPDU ED chunk, the ED chunk does not require a chunk
header" — is stateless, so it lives in the fixed-field codec
(:mod:`repro.core.codec`) and applies to every packet.

All integers in the compact encoding are unsigned LEB128 varints.

A figure model: FIG-7 and CLAIM-OVERHEAD measure it, and no transfer
runs it — a transfer's chunks go on the wire in the fixed-field codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.chunk import Chunk
from repro.core.errors import CodecError
from repro.core.tuples import FramingTuple
from repro.core.types import WORD_BYTES, ChunkType

__all__ = [
    "CompressionProfile",
    "HeaderCompressor",
    "HeaderDecompressor",
    "implicit_tpdu_ids",
    "encode_varint",
    "decode_varint",
]


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Returns (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def implicit_tpdu_ids(chunks: Iterable[Chunk]) -> list[Chunk]:
    """*chunks* with every DATA chunk relabelled by the Figure 7 rule
    T.ID = C.SN − T.SN, other chunks as they are.

    Each TPDU's id becomes the connection sequence number of its first
    data unit, which makes the explicit T.ID field redundant.  Relabel
    before a TPDU's ED chunk is made: it carries its TPDU's T.ID.
    """
    return [
        chunk.replace(t=FramingTuple(chunk.c_sn - chunk.t_sn, chunk.t_sn, chunk.t_st))
        if chunk.is_data else chunk
        for chunk in chunks
    ]


# ----------------------------------------------------------------------
# Profile (what signaling established)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionProfile:
    """Header facts shared out-of-band (signaling) per Appendix A.

    Attributes:
        size_by_type: SIZE value for each chunk TYPE; when present, the
            SIZE field is elided from compact headers.
        connection_id: when set, the channel is non-multiplexed and the
            C.ID field is elided.
        implicit_t_id: drop T.ID; reconstruct as C.SN − T.SN.
        regenerate_sns: drop SNs/X.ID on non-boundary chunks; regenerate
            with receiver counters (requires an in-order channel for
            steady-state gain; explicit resync headers keep correctness
            even when prediction fails).
    """

    size_by_type: dict[ChunkType, int] = field(default_factory=dict)
    connection_id: int | None = None
    implicit_t_id: bool = False
    regenerate_sns: bool = False


_F_C_ST = 0x01
_F_T_ST = 0x02
_F_X_ST = 0x04
_F_EXPLICIT = 0x08  # header carries explicit SN/ID fields


@dataclass(frozen=True)
class _HeaderFields:
    """A decoded compact header awaiting its payload."""

    type: ChunkType
    size: int
    length: int
    c_id: int
    c_sn: int
    c_st: bool
    t_id: int
    t_sn: int
    t_st: bool
    x_id: int
    x_sn: int
    x_st: bool


@dataclass
class _Prediction:
    """Shared encoder/decoder counter state for SN regeneration."""

    c_id: int = 0
    c_sn: int = 0
    t_id: int = 0
    t_sn: int = 0
    x_id: int = 0
    x_sn: int = 0
    valid: bool = False

    def matches(self, chunk: Chunk) -> bool:
        return (
            self.valid
            and chunk.c_id == self.c_id
            and chunk.c_sn == self.c_sn
            and chunk.t_id == self.t_id
            and chunk.t_sn == self.t_sn
            and chunk.x_id == self.x_id
            and chunk.x_sn == self.x_sn
        )

    def advance(self, chunk: Chunk) -> None:
        """State after *chunk* on an in-order channel."""
        self.c_id = chunk.c_id
        self.c_sn = chunk.c_sn + chunk.length
        if chunk.t_st:
            # Next TPDU: id unknown in general; with the implicit rule it
            # equals the next C.SN, which both sides can compute.
            self.t_id = self.c_sn
            self.t_sn = 0
        else:
            self.t_id = chunk.t_id
            self.t_sn = chunk.t_sn + chunk.length
        if chunk.x_st:
            self.x_id = chunk.x_id + 1
            self.x_sn = 0
        else:
            self.x_id = chunk.x_id
            self.x_sn = chunk.x_sn + chunk.length
        self.valid = True


class HeaderCompressor:
    """Stateful compact-header encoder for one uni-directional channel."""

    def __init__(self, profile: CompressionProfile) -> None:
        self.profile = profile
        self._prediction = _Prediction()

    def encode(self, chunk: Chunk) -> bytes:
        """Compact encoding of *chunk* (header + payload)."""
        return self.encode_header(chunk) + chunk.payload

    def encode_header(self, chunk: Chunk) -> bytes:
        """Compact encoding of the header alone (payload shipped apart).

        Used by the packet-scope compressor, which entropy-codes all of
        a packet's headers together (Appendix A's Huffman option).
        """
        prof = self.profile
        if prof.connection_id is not None and chunk.c_id != prof.connection_id:
            raise CodecError(
                f"chunk C.ID {chunk.c_id} on channel signaled for "
                f"connection {prof.connection_id}"
            )
        implicit_tid = prof.implicit_t_id and chunk.is_data
        if implicit_tid and chunk.t_id != chunk.c_sn - chunk.t_sn:
            raise CodecError(
                "implicit T.ID requires T.ID == C.SN - T.SN "
                f"(got T.ID={chunk.t_id}, C.SN={chunk.c_sn}, T.SN={chunk.t_sn}); "
                "relabel with implicit_tpdu_ids()"
            )
        signaled_size = prof.size_by_type.get(chunk.type)
        if signaled_size is not None and signaled_size != chunk.size:
            raise CodecError(
                f"SIZE {chunk.size} differs from signaled {signaled_size} "
                f"for TYPE {chunk.type.name}"
            )

        # Appendix A: "the transmitter must send SN information to the
        # receiver occasionally, such as at the beginning of each PDU" —
        # TPDU-start chunks are always explicit so one lost chunk can
        # desynchronize at most the remainder of its own TPDU.
        explicit = True
        if (
            prof.regenerate_sns
            and chunk.is_data
            and chunk.t_sn != 0
            and self._prediction.matches(chunk)
        ):
            explicit = False

        flags = (
            (_F_C_ST if chunk.c_st else 0)
            | (_F_T_ST if chunk.t_st else 0)
            | (_F_X_ST if chunk.x_st else 0)
            | (_F_EXPLICIT if explicit else 0)
        )
        out = bytearray((int(chunk.type), flags))
        out += encode_varint(chunk.length)
        if signaled_size is None:
            out += encode_varint(chunk.size)
        if explicit:
            if prof.connection_id is None:
                out += encode_varint(chunk.c_id)
            out += encode_varint(chunk.c_sn)
            if not implicit_tid:
                out += encode_varint(chunk.t_id)
            out += encode_varint(chunk.t_sn)
            out += encode_varint(chunk.x_id)
            out += encode_varint(chunk.x_sn)
        if chunk.is_data:
            self._prediction.advance(chunk)
        return bytes(out)


class HeaderDecompressor:
    """Stateful compact-header decoder matching :class:`HeaderCompressor`."""

    def __init__(self, profile: CompressionProfile) -> None:
        self.profile = profile
        self._prediction = _Prediction()

    def decode(self, data: bytes, offset: int = 0) -> tuple[Chunk, int]:
        """Decode one compact chunk; returns (chunk, next_offset)."""
        header, payload_len, offset = self.decode_header(data, offset)
        if offset + payload_len > len(data):
            raise CodecError("truncated compact chunk payload")
        chunk = self.finish(header, bytes(data[offset : offset + payload_len]))
        return chunk, offset + payload_len

    def decode_header(self, data: bytes, offset: int = 0):
        """Decode one compact header; returns (fields, payload_len, offset).

        Pair with :meth:`finish` once the payload bytes are in hand (the
        packet-scope compressor stores headers and payloads apart).
        """
        prof = self.profile
        if len(data) - offset < 2:
            raise CodecError("truncated compact chunk header")
        try:
            chunk_type = ChunkType(data[offset])
        except ValueError:
            raise CodecError(f"unknown chunk TYPE {data[offset]:#x}") from None
        flags = data[offset + 1]
        offset += 2
        length, offset = decode_varint(data, offset)
        signaled_size = prof.size_by_type.get(chunk_type)
        if signaled_size is None:
            size, offset = decode_varint(data, offset)
        else:
            size = signaled_size

        if flags & _F_EXPLICIT:
            if prof.connection_id is None:
                c_id, offset = decode_varint(data, offset)
            else:
                c_id = prof.connection_id
            implicit_tid = prof.implicit_t_id and chunk_type is ChunkType.DATA
            c_sn, offset = decode_varint(data, offset)
            if not implicit_tid:
                t_id, offset = decode_varint(data, offset)
            t_sn, offset = decode_varint(data, offset)
            if implicit_tid:
                t_id = c_sn - t_sn  # the Figure 7 reconstruction
            x_id, offset = decode_varint(data, offset)
            x_sn, offset = decode_varint(data, offset)
        else:
            if not prof.regenerate_sns or not self._prediction.valid:
                raise CodecError("implicit-SN chunk without established context")
            p = self._prediction
            c_id = prof.connection_id if prof.connection_id is not None else p.c_id
            c_sn, t_id, t_sn, x_id, x_sn = p.c_sn, p.t_id, p.t_sn, p.x_id, p.x_sn

        unit_bytes = size * WORD_BYTES if chunk_type is ChunkType.DATA else WORD_BYTES
        payload_len = length * unit_bytes
        fields = _HeaderFields(
            chunk_type, size, length,
            c_id, c_sn, bool(flags & _F_C_ST),
            t_id, t_sn, bool(flags & _F_T_ST),
            x_id, x_sn, bool(flags & _F_X_ST),
        )
        if fields.type is ChunkType.DATA:
            # Advance here (not in finish) so back-to-back headers can
            # be decoded before any payload is available.
            self._prediction.advance(fields)
        return fields, payload_len, offset

    def finish(self, fields: "_HeaderFields", payload: bytes) -> Chunk:
        """Attach the payload to decoded header fields.

        Varints are unbounded, so unlike the fixed-field decoder this one
        goes through the validating constructor.
        """
        try:
            return Chunk(
                type=fields.type,
                size=fields.size,
                length=fields.length,
                c=FramingTuple(fields.c_id, fields.c_sn, fields.c_st),
                t=FramingTuple(fields.t_id, fields.t_sn, fields.t_st),
                x=FramingTuple(fields.x_id, fields.x_sn, fields.x_st),
                payload=payload,
            )
        except ValueError as exc:
            raise CodecError(f"compact header field outside its wire width: {exc}") from None
