"""Acknowledgment chunks and piggybacking (Appendix A).

"Packets are utilized more efficiently if multiple chunks can be
carried in a packet...  Data, signaling information, and
acknowledgments can be combined in any combination.  Notice that this
allows an error detection system that utilizes chunks to achieve the
efficiency associated with the piggybacking of acknowledgments without
requiring the explicit design of piggybacking into the error control
protocol."

An ACK chunk is control information: ``TYPE = ACK``, payload a list of
acknowledged TPDU ids (one 32-bit word each).  Because it is just a
chunk, it rides in whatever packet has room: ``pack_chunks`` over data
and ACK chunks together is all piggybacking takes.

A *gap report* is an ACK chunk with T.ST set: its T.ID names a TPDU held
incomplete, its payload (start, end) word pairs of the unit ranges it
lacks, the ED chunk counted as the unit past the TPDU's last.
"""

from __future__ import annotations

import struct

from repro.core.chunk import Chunk
from repro.core.errors import ChunkError
from repro.core.types import ID_LIMIT, OPEN_END, WORD_BYTES, ChunkType

__all__ = [
    "MAX_ACKS_PER_CHUNK", "OPEN_END", "build_ack_chunk", "build_gap_report",
    "parse_ack_chunk", "parse_gap_report",
]

#: Keep ACK chunks comfortably inside any sane MTU.
MAX_ACKS_PER_CHUNK = 64
_MOST_GAPS = MAX_ACKS_PER_CHUNK // 2
_ACK = ChunkType.ACK  # an enum member read is ~0.1 µs on CPython 3.11
#: The id words of an ACK chunk of each count, compiled once (~0.4 µs a call).
_ID_WORDS = tuple(struct.Struct(">%dI" % count) for count in range(MAX_ACKS_PER_CHUNK + 1))


def build_ack_chunk(connection_id: int, t_ids: list[int]) -> Chunk:
    """An ACK control chunk acknowledging verified TPDUs.

    One pack of the id words and one unvalidated record: the C.ID is held
    to its field here, every other header field is a constant.
    """
    count = len(t_ids)
    if not count:
        raise ChunkError("an ACK chunk must acknowledge at least one TPDU")
    if count > MAX_ACKS_PER_CHUNK:
        raise ChunkError(f"{count} acks exceed the {MAX_ACKS_PER_CHUNK}-per-chunk limit")
    if not 0 <= connection_id < ID_LIMIT:
        raise ValueError(f"ID must be in 0..2^32-1, got {connection_id}")
    try:
        payload = _ID_WORDS[count].pack(*t_ids)
    except struct.error:  # an id wider than its word keeps its low 32 bits
        payload = _ID_WORDS[count].pack(*[t_id & 0xFFFFFFFF for t_id in t_ids])
    return Chunk._make(
        _ACK, 1, count, connection_id, 0, False, 0, 0, False, 0, 0, False, payload
    )


def build_gap_report(connection_id: int, t_id: int, gaps: list[tuple[int, int]]) -> Chunk:
    """A gap report: TPDU *t_id* lacks the unit ranges *gaps*.  Past half
    an ACK chunk's words of them, the last range runs to :data:`OPEN_END`."""
    if len(gaps) > _MOST_GAPS:
        gaps = [*gaps[: _MOST_GAPS - 1], (gaps[_MOST_GAPS - 1][0], OPEN_END)]
    words = [word for gap in gaps for word in gap]
    if not words:
        raise ChunkError("a gap report must name at least one missing range")
    payload = _ID_WORDS[len(words)].pack(*words)
    return Chunk._make(
        _ACK, 1, len(words), connection_id, 0, False, t_id, 0, True, 0, 0, False, payload
    )


def parse_gap_report(chunk: Chunk, units: int) -> list[tuple[int, int]] | None:
    """The (start, end) ranges a gap report names; None unless its words
    ascend and end inside a TPDU of *units* units and its ED chunk."""
    words = list(struct.unpack(">%dI" % (len(chunk.payload) // WORD_BYTES), chunk.payload))
    if not words or len(words) % 2 or words != sorted(set(words)):
        return None
    if words[-1] > units + 1 and words[-1] != OPEN_END:
        return None
    return list(zip(words[::2], words[1::2]))


def parse_ack_chunk(chunk: Chunk) -> list[int]:
    """The acknowledged TPDU ids carried by an ACK chunk (a gap report
    acknowledges none)."""
    if chunk.type is not _ACK:
        raise ChunkError(f"not an ACK chunk: TYPE={chunk.type.name}")
    if chunk[8]:
        return []
    payload = chunk.payload
    count = len(payload) // WORD_BYTES
    if count <= MAX_ACKS_PER_CHUNK:
        return list(_ID_WORDS[count].unpack(payload))
    return list(struct.unpack(">%dI" % count, payload))

