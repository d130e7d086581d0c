"""A conventional reorder-before-process transport (TCP-segment style).

The foil for immediate chunk processing: PDU elements are "implicitly
identified by their position within the PDU, which means that to
process a packet that contains a piece of a PDU requires already having
seen all previous pieces" (Section 1).  Concretely:

- segments carry (seq, payload, CRC-32-over-segment);
- the CRC is order-dependent, so a fragmented or misordered segment
  must be physically reassembled/reordered before verification;
- delivery to the application is strictly in stream order.

The receiver instruments buffer occupancy, bytes buffered before
processing, and per-byte data touches so the host-model benches can put
numbers next to the paper's qualitative claims.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.paper.crc import crc32

__all__ = [
    "SEGMENT_HEADER_BYTES",
    "Segment",
    "segment_stream",
    "InOrderReceiver",
    "InOrderStats",
]

SEGMENT_HEADER_BYTES = 16  # magic(2) flags(2) seq(8) length(4)
_HEADER = struct.Struct(">HHQI")


@dataclass(frozen=True, slots=True)
class Segment:
    """One transport segment of a byte stream starting at *seq*."""

    seq: int
    payload: bytes

    @property
    def wire_bytes(self) -> int:
        return SEGMENT_HEADER_BYTES + len(self.payload) + 4

    def encode(self) -> bytes:
        body = _HEADER.pack(0x5347, 0, self.seq, len(self.payload)) + self.payload
        return body + struct.pack(">I", crc32(body))

    @classmethod
    def decode(cls, data: bytes) -> "Segment":
        magic, _flags, seq, length = _HEADER.unpack_from(data, 0)
        if magic != 0x5347:
            raise ValueError("bad segment magic")
        payload = data[SEGMENT_HEADER_BYTES : SEGMENT_HEADER_BYTES + length]
        (check,) = struct.unpack_from(">I", data, SEGMENT_HEADER_BYTES + length)
        if check != crc32(data[: SEGMENT_HEADER_BYTES + length]):
            raise ValueError("segment CRC failure")
        return cls(seq, payload)


def segment_stream(stream: bytes, segment_payload: int, start_seq: int = 0) -> list[Segment]:
    """Cut a byte stream into fixed-size segments."""
    return [
        Segment(start_seq + offset, stream[offset : offset + segment_payload])
        for offset in range(0, len(stream), segment_payload)
    ]


@dataclass
class InOrderStats:
    segments_in: int = 0
    duplicate_segments: int = 0
    bytes_delivered: int = 0
    peak_buffer_bytes: int = 0
    buffered_byte_seconds: float = 0.0
    #: each byte's writes+reads inside the receiver before app delivery.
    data_touches: int = 0


@dataclass
class InOrderReceiver:
    """Buffers out-of-order segments; delivers the stream in order.

    Touch accounting per the paper's RISC bus argument: an in-order
    segment is verified and handed over (1 touch); an out-of-order
    segment is written to the reorder buffer (1 touch) and later read
    back out for delivery (1 more touch).
    """

    deliver: "callable[[int, bytes], None]"
    next_seq: int = 0
    stats: InOrderStats = field(default_factory=InOrderStats)
    _buffer: dict[int, tuple[bytes, float]] = field(default_factory=dict)

    def receive(self, segment: Segment, now: float = 0.0) -> None:
        self.stats.segments_in += 1
        if segment.seq + len(segment.payload) <= self.next_seq or segment.seq in self._buffer:
            self.stats.duplicate_segments += 1
            return
        if segment.seq != self.next_seq:
            # Out of order: must buffer (the touch the paper avoids).
            self._buffer[segment.seq] = (segment.payload, now)
            self.stats.data_touches += len(segment.payload)
            occupancy = sum(len(p) for p, _ in self._buffer.values())
            self.stats.peak_buffer_bytes = max(self.stats.peak_buffer_bytes, occupancy)
            return
        self._deliver(segment.seq, segment.payload, now, touched=False)
        # Drain any buffered continuation.
        while self.next_seq in self._buffer:
            payload, entered = self._buffer.pop(self.next_seq)
            self.stats.buffered_byte_seconds += len(payload) * (now - entered)
            self._deliver(self.next_seq, payload, now, touched=True)

    def _deliver(self, seq: int, payload: bytes, now: float, touched: bool) -> None:
        # One touch to process/deliver; a buffered segment already paid
        # one on the way in (and is read back out here).
        self.stats.data_touches += len(payload) * (2 if touched else 1)
        self.stats.bytes_delivered += len(payload)
        self.next_seq = seq + len(payload)
        self.deliver(seq, payload)

    @property
    def buffered_bytes(self) -> int:
        return sum(len(p) for p, _ in self._buffer.values())
