"""The chunk: a completely self-describing piece of a PDU.

Section 2 of the paper: "a chunk is a group of data, along with a single
header to label the data.  The chunk header carries the TYPE and IDs
shared by all data of the chunk, the SNs of the first data of the chunk,
and the ST bits for the last data of the chunk.  In addition, the chunk
header carries SIZE and LEN fields that indicate the size and number of
the data pieces in the chunk."

A :class:`Chunk` is that header as one flat immutable record — the
fields of :data:`repro.core.wire_table.CHUNK_HEADER` with FLAGS opened
into its three ST bits — plus the payload bytes.  The three framing
levels of the paper's worked example (connection C, transport PDU T,
external PDU X) read as ``chunk.c`` / ``.t`` / ``.x``, built on demand.

A label is validated where it is *made*, not where it is parsed:
``Chunk(...)`` checks every field against its wire width, so a chunk
that constructs is a chunk that encodes; :meth:`Chunk._make` checks
nothing and serves only code whose inputs are already bounded (the
decoder's unsigned fields, Appendix C/D arithmetic on a valid label, the
stream builder's counters).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.core.errors import ChunkError
from repro.core.tuples import FramingTuple, Level
from repro.core.types import HEADER_BYTES, LEN_LIMIT, SIZE_LIMIT, WORD_BYTES, ChunkType

__all__ = ["Chunk"]

_new = tuple.__new__


class Chunk(tuple):  # the record *is* the tuple of the fields below, in this order
    """A self-describing chunk.

    Attributes:
        type: how the payload is processed (:class:`ChunkType`).
        size: words (32-bit symbols) per atomic data unit.  The SIZE
            field guarantees atomic units are never split by
            fragmentation (e.g. 64-bit cipher blocks have ``size=2``).
        length: number of atomic data units in the payload (the LEN
            field).  For control chunks, the payload word count (control
            is indivisible, so LEN never changes in flight).
        c_id, c_sn, c_st: connection-level (ID, SN, ST).
        t_id, t_sn, t_st: transport-PDU (ID, SN, ST).
        x_id, x_sn, x_st: external-PDU (application frame / ALF) label.
        payload: the data, exactly ``length * size * 4`` bytes.
    """

    __slots__ = ()

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
    payload: bytes

    def __new__(
        cls,
        type: ChunkType,
        size: int,
        length: int,
        c: FramingTuple,
        t: FramingTuple,
        x: FramingTuple,
        payload: bytes,
    ) -> "Chunk":
        """The validating constructor (the tuples were held to their
        widths when *they* were made)."""
        if not isinstance(type, ChunkType):
            raise ChunkError(f"TYPE must be a ChunkType, got {type!r}")
        if not 1 <= size < SIZE_LIMIT:
            raise ChunkError(f"SIZE must be in 1..{SIZE_LIMIT - 1} words, got {size}")
        if not 1 <= length < LEN_LIMIT:
            raise ChunkError(f"LEN must be in 1..{LEN_LIMIT - 1} units, got {length}")
        expected = length * (size if type is ChunkType.DATA else 1) * WORD_BYTES
        if len(payload) != expected:
            raise ChunkError(
                f"payload is {len(payload)} bytes, but "
                f"LEN={length} x SIZE={size} requires {expected}"
            )
        return _new(
            cls,
            (type, size, length, c.ident, c.sn, c.st, t.ident, t.sn, t.st,
             x.ident, x.sn, x.st, payload),
        )

    @staticmethod
    def _make(
        type: ChunkType, size: int, length: int,
        c_id: int, c_sn: int, c_st: bool,
        t_id: int, t_sn: int, t_st: bool,
        x_id: int, x_sn: int, x_st: bool,
        payload: bytes,
    ) -> "Chunk":
        """The unvalidated maker: the caller's fields are already bounded."""
        return _new(
            Chunk,
            (type, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload),
        )

    def replace(self, **changes: Any) -> "Chunk":
        """Validated copy with some constructor arguments replaced."""
        fields: dict[str, Any] = {
            "type": self.type, "size": self.size, "length": self.length,
            "c": self.c, "t": self.t, "x": self.x, "payload": self.payload,
        }
        return Chunk(**{**fields, **changes})

    def __reduce__(self) -> tuple[Any, ...]:
        """``copy`` and ``pickle`` go through the validating constructor."""
        return Chunk, (self.type, self.size, self.length, self.c, self.t, self.x, self.payload)

    def __repr__(self) -> str:
        return (
            f"Chunk(type={self.type!r}, size={self.size!r}, length={self.length!r}, "
            f"c={self.c!r}, t={self.t!r}, x={self.x!r}, payload={self.payload!r})"
        )

    # ------------------------------------------------------------------
    # Framing-tuple views (built on demand, never stored)
    # ------------------------------------------------------------------

    @property
    def c(self) -> FramingTuple:
        """Connection-level framing tuple."""
        return FramingTuple(self.c_id, self.c_sn, self.c_st)

    @property
    def t(self) -> FramingTuple:
        """Transport-PDU framing tuple."""
        return FramingTuple(self.t_id, self.t_sn, self.t_st)

    @property
    def x(self) -> FramingTuple:
        """External-PDU (application frame / ALF) framing tuple."""
        return FramingTuple(self.x_id, self.x_sn, self.x_st)

    def tuple_for(self, level: Level) -> FramingTuple:
        """Framing tuple for level ``"c"``, ``"t"`` or ``"x"``."""
        try:
            first = {"c": 3, "t": 6, "x": 9}[level]
        except KeyError:
            raise ChunkError(f"unknown framing level {level!r}") from None
        return FramingTuple(*self[first : first + 3])

    def with_tuples(
        self,
        c: FramingTuple | None = None,
        t: FramingTuple | None = None,
        x: FramingTuple | None = None,
    ) -> "Chunk":
        """Copy of this chunk with some framing tuples replaced."""
        given = {"c": c, "t": t, "x": x}
        return self.replace(**{level: label for level, label in given.items() if label is not None})

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def is_data(self) -> bool:
        """True for DATA chunks; False for (indivisible) control chunks."""
        return self.type is ChunkType.DATA

    @property
    def is_control(self) -> bool:
        return self.type is not ChunkType.DATA

    @property
    def unit_bytes(self) -> int:
        """Bytes per atomic data unit (SIZE expressed in bytes)."""
        return self.size * WORD_BYTES

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)

    @property
    def wire_bytes(self) -> int:
        """Bytes this chunk occupies on the wire (fixed-field header)."""
        return HEADER_BYTES + len(self.payload)

    @property
    def words(self) -> int:
        """Payload length in 32-bit symbols."""
        return len(self.payload) // WORD_BYTES

    # ------------------------------------------------------------------
    # Unit access (used by fragmentation and the host processing model)
    # ------------------------------------------------------------------

    def unit(self, index: int) -> bytes:
        """Payload bytes of atomic unit *index* (0 <= index < length)."""
        if not 0 <= index < self.length:
            raise IndexError(f"unit {index} out of range 0..{self.length - 1}")
        start = index * self.unit_bytes
        return self.payload[start : start + self.unit_bytes]

    def units(self) -> list[bytes]:
        """All atomic units, in order."""
        return [self.unit(i) for i in range(self.length)] if self.is_data else [self.payload]

    def describe(self) -> str:
        """Human-readable one-liner in the style of Figure 2's header box."""
        return (
            f"TYPE={self.type.name} SIZE={self.size} LEN={self.length} "
            f"C={self.c} T={self.t} X={self.x}"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# The annotations above are the field order; each reads its tuple slot.
for _index, _name in enumerate(Chunk.__annotations__):
    setattr(Chunk, _name, property(itemgetter(_index)))
