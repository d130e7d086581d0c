"""Chunk transport receiver: immediate processing, no reorder buffer.

The receiver demonstrates the paper's headline property: every arriving
chunk is fully processed on arrival —

1. its payload is *placed* directly into the application address space,
   once (the stream, by C.SN; a frame is a window of it — spatial reordering);
2. its contribution to the TPDU's WSC-2 invariant is accumulated
   incrementally (duplicates rejected via virtual reassembly);
3. completed TPDUs are verified end-to-end and acknowledged or
   retransmission-flagged.

No payload byte is ever buffered waiting for other packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.chunk import Chunk
from repro.core.errors import CodecError, SignalingError
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.core.errors import BudgetExceededError, InconsistentOverlapError
from repro.host.delivery import FrameStore, PlacementBuffer
from repro.obs import counter, histogram, journey_handle
from repro.transport.connection import ConnectionConfig, parse_signaling_chunk
from repro.wsc.endtoend import EndToEndReceiver, TpduVerdict

__all__ = ["ReceiverEvents", "ChunkTransportReceiver"]

_OBS_PACKETS = counter("transport", "receiver.packets_received", "wire packets decoded")
_OBS_CHUNKS = counter("transport", "receiver.chunks_received", "chunks processed on arrival")
_OBS_DUPLICATES = counter("transport", "receiver.duplicate_chunks", "fully duplicate chunks")
_OBS_REJECTED = counter(
    "transport", "receiver.rejected_placements", "placements refused (absurd offsets)"
)
_OBS_DECODE_FAILURES = counter(
    "transport", "receiver.decode_failures", "undecodable wire packets"
)
_OBS_UNKNOWN_TYPE = counter(
    "transport",
    "receiver.unknown_type_chunks",
    "chunks of a TYPE this receiver does not process",
)
_OBS_SIGNALING_REJECTED = counter(
    "transport",
    "receiver.signaling_rejected",
    "malformed establishment chunks refused",
)
_OBS_BUDGET_REFUSED = counter(
    "transport",
    "receiver.budget_refused_chunks",
    "chunks whose placement the shared budget refused (not acknowledged)",
)
_OBS_OVERLAP_CONFLICT = counter(
    "transport",
    "receiver.overlap_conflict_chunks",
    "chunks refused for overlapping placed bytes with different content",
)
_OBS_OOO_DISTANCE = histogram(
    "transport",
    "receiver.ooo_distance",
    "units between a chunk's C.SN and the in-order arrival frontier",
)
# Placement into the application address space is the paper's single
# data touch (Figure 1): the immediate-processing receiver moves each
# payload byte across the bus exactly once.
_OBS_DATA_TOUCHES = counter("host", "data_touches", "payload placements into app memory")
_OBS_DATA_TOUCH_BYTES = counter(
    "host", "data_touch_bytes", "fresh payload bytes placed into app memory"
)
_OBS_JOURNEY = journey_handle()
# An enum member read is ~0.1 µs on CPython 3.11: the per-chunk path reads these.
_SIGNALING, _ED, _DATA = ChunkType.SIGNALING, ChunkType.ERROR_DETECTION, ChunkType.DATA


def _site(framed: bool) -> dict[str, str]:
    """The journey field of a refusal: only the frame store's carries one."""
    return {"site": "frame"} if framed else {}


@dataclass
class ReceiverEvents:
    """What one packet's processing produced."""

    verdicts: list[TpduVerdict] = field(default_factory=list)
    completed_frames: list[int] = field(default_factory=list)
    connection_closed: bool = False
    decode_failed: bool = False
    #: the decoded chunks (filled by :meth:`receive_packet` so callers
    #: that need chunk-level context — ACK re-emission, endpoint demux —
    #: never decode the frame a second time).
    chunks: list[Chunk] = field(default_factory=list)


@dataclass
class ChunkTransportReceiver:
    """Receiver side of a chunk connection."""

    config: ConnectionConfig | None = None

    verifier: EndToEndReceiver = field(default_factory=EndToEndReceiver)
    stream: PlacementBuffer = field(default_factory=PlacementBuffer)
    #: the X level: each frame is a window of :attr:`stream`.
    frames: FrameStore = field(init=False)

    chunks_received: int = 0
    packets_received: int = 0
    duplicate_chunks: int = 0
    #: chunks whose placement was refused (absurd offsets from corrupted
    #: SNs); the verifier still sees them, so the TPDU is rejected.
    rejected_placements: int = 0
    #: chunks whose TYPE this receiver has no handler for (e.g. an ACK
    #: that strayed onto the forward path, or a future control type) —
    #: dropped, but counted rather than silently.
    unknown_type_chunks: int = 0
    #: malformed establishment chunks refused by the strict parser.
    signaling_rejected: int = 0
    #: chunks the shared placement budget refused.  Deliberately *not*
    #: fed to the verifier: an acknowledged-but-unplaced TPDU would be
    #: silent data loss, so the TPDU stays pending and the sender's
    #: retransmission retries (or gives up) instead.
    budget_refused_chunks: int = 0
    #: chunks refused because their bytes *disagree* with bytes already
    #: placed at the same offsets (inconsistent-overlap forgery).  Like
    #: budget refusals these never reach the verifier: the disagreement
    #: must stay visible (unverified TPDU, sender retry/give-up), never
    #: be resolved silently by first- or last-write-wins.
    overlap_conflict_chunks: int = 0
    closed: bool = False
    #: the in-order arrival frontier (next C.SN if nothing reordered);
    #: feeds the out-of-order distance histogram.
    _frontier_sn: int = 0

    def __post_init__(self) -> None:
        self.frames = FrameStore(self.stream)

    def receive_packet(self, frame: bytes) -> ReceiverEvents:
        """Decode a wire packet and process every chunk in it."""
        events = ReceiverEvents()
        self.packets_received += 1
        _OBS_PACKETS.inc()
        try:
            packet = Packet.decode(frame)
        except CodecError:
            events.decode_failed = True
            _OBS_DECODE_FAILURES.inc()
            return events
        events.chunks = packet.chunks
        for chunk in packet.chunks:
            self._receive_chunk(chunk, events)
        return events

    def receive_chunk(self, chunk: Chunk) -> ReceiverEvents:
        """Process one already-decoded chunk (router-less test paths)."""
        events = ReceiverEvents()
        self._receive_chunk(chunk, events)
        return events

    def receive_chunks(self, chunks: Iterable[Chunk]) -> ReceiverEvents:
        """Process a batch of already-decoded chunks.

        The endpoint demux path: a multiplexed packet is decoded once by
        the endpoint, and each connection's receiver sees only its own
        chunks — possibly interleaved with other conversations' chunks
        in the same envelope.
        """
        events = ReceiverEvents()
        events.chunks = list(chunks)
        for chunk in events.chunks:
            self._receive_chunk(chunk, events)
        return events

    # ------------------------------------------------------------------

    def _receive_chunk(self, chunk: Chunk, events: ReceiverEvents) -> None:
        self.chunks_received += 1
        _OBS_CHUNKS.inc()
        ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
        if ctype is _SIGNALING:
            self._handle_signaling(chunk)
            return
        if ctype is _ED:
            verdicts = self.verifier.receive(chunk)
            if _OBS_JOURNEY:
                self._journey_verdicts(c_id, verdicts)
            events.verdicts.extend(verdicts)
            return
        if ctype is not _DATA:
            self.unknown_type_chunks += 1
            _OBS_UNKNOWN_TYPE.inc()
            return

        _OBS_OOO_DISTANCE.observe(abs(c_sn - self._frontier_sn))
        self._frontier_sn = max(self._frontier_sn, c_sn + length)

        # (1) immediate placement into application memory, once: the stream
        # holds the bytes, the frame store only windows them.  Both refuse
        # absurd offsets (corrupted SNs) and an ST that contradicts a known end
        # or span; the verifier below still sees the chunk and rejects the TPDU.
        unit_bytes = chunk.unit_bytes
        offset = c_sn * unit_bytes
        place = self.stream.place_last if c_st else self.stream.place
        framed = False  # the stream has accepted; a refusal is the frame store's
        try:
            fresh = place(offset, payload)
            if fresh == 0:
                self.duplicate_chunks += 1
                _OBS_DUPLICATES.inc()
                if _OBS_JOURNEY:
                    _OBS_JOURNEY.chunk("duplicate", chunk)
            else:
                _OBS_DATA_TOUCHES.inc()
                _OBS_DATA_TOUCH_BYTES.inc(fresh)
                if _OBS_JOURNEY:
                    _OBS_JOURNEY.chunk("placed", chunk, fresh=fresh)
            framed = True
            if self.frames.place(x_id, x_sn * unit_bytes, offset, len(payload), x_st):
                events.completed_frames.append(x_id)
                if _OBS_JOURNEY:
                    _OBS_JOURNEY.emit("delivered", c_id, 0, 0, level="frame", x_id=x_id)
        except InconsistentOverlapError:
            self.overlap_conflict_chunks += 1
            _OBS_OVERLAP_CONFLICT.inc()
            if _OBS_JOURNEY:
                _OBS_JOURNEY.chunk("conflict", chunk, reason="overlap", **_site(framed))
            return  # unacknowledged: the content disagreement stays visible
        except BudgetExceededError:
            self.budget_refused_chunks += 1
            _OBS_BUDGET_REFUSED.inc()
            if _OBS_JOURNEY:
                _OBS_JOURNEY.chunk("refused", chunk, reason="budget")
            return  # unacknowledged: retransmission retries the placement
        except ValueError:
            self.rejected_placements += 1
            _OBS_REJECTED.inc()
            if _OBS_JOURNEY:
                _OBS_JOURNEY.chunk("refused", chunk, reason="bounds", **_site(framed))

        # (2)+(3) incremental verification via the end-to-end receiver.
        verdicts = self.verifier.receive(chunk)
        if _OBS_JOURNEY and verdicts:
            self._journey_verdicts(c_id, verdicts)
        events.verdicts.extend(verdicts)

        # Only the end the stream accepted (now or earlier) closes it.
        if c_st and self.stream.total_bytes == offset + len(payload):
            self.closed = True
            events.connection_closed = True

    def _journey_verdicts(
        self, c_id: int, verdicts: Iterable[TpduVerdict]
    ) -> None:
        for verdict in verdicts:
            _OBS_JOURNEY.emit(
                "verified", c_id, 0, 0, level="tpdu",
                t_id=verdict.t_id, ok=verdict.ok,
            )

    def _handle_signaling(self, chunk: Chunk) -> None:
        try:
            config = parse_signaling_chunk(chunk)
        except SignalingError:
            self.signaling_rejected += 1
            _OBS_SIGNALING_REJECTED.inc()
            return
        if self.config is None:
            self.config = config

    # ------------------------------------------------------------------

    def verified_tpdus(self) -> int:
        return self.verifier.verified

    def corrupted_tpdus(self) -> int:
        return self.verifier.corrupted

    def pending_tpdus(self) -> list[tuple[int, int]]:
        """(C.ID, T.ID) of TPDUs awaiting more chunks — the NACK list."""
        return self.verifier.pending()

    def stream_bytes(self) -> bytes:
        """The reconstructed connection byte stream so far."""
        return self.stream.contents()
