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

Each chunk is one step on its label, unpacked once: place, window,
verify.  Telemetry stays off that step: the receiver's tallies are its
own integers, published as deltas once per call when a registry is
installed, and the journey tracker is looked up once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.chunk import Chunk
from repro.core.errors import CodecError, SignalingError
from repro.core.packet import Packet
from repro.core.types import WORD_BYTES, ChunkType
from repro.core.errors import BudgetExceededError, InconsistentOverlapError
from repro.host.delivery import FrameStore, PlacementBuffer
from repro.obs import Histogram, Tallies, declare
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime
from repro.transport.connection import ConnectionConfig, parse_signaling_chunk
from repro.wsc.endtoend import EndToEndReceiver, TpduVerdict

__all__ = ["ReceiverEvents", "ChunkTransportReceiver"]

#: The receiver's tallies — its own integers, by attribute — and the
#: counters they are published to, as deltas once per call while a
#: registry is installed.  A data touch is a placement of fresh bytes into
#: the application's memory: the paper's single touch (Figure 1).
_TALLIES = Tallies({
    "packets_received": ("transport", "receiver.packets_received", "wire packets decoded"),
    "chunks_received": ("transport", "receiver.chunks_received", "chunks processed on arrival"),
    "duplicate_chunks": ("transport", "receiver.duplicate_chunks", "fully duplicate chunks"),
    "rejected_placements": (
        "transport", "receiver.rejected_placements", "placements refused (absurd offsets)"
    ),
    "decode_failures": ("transport", "receiver.decode_failures", "undecodable wire packets"),
    "unknown_type_chunks": (
        "transport", "receiver.unknown_type_chunks",
        "chunks of a TYPE this receiver does not process",
    ),
    "signaling_rejected": (
        "transport", "receiver.signaling_rejected", "malformed establishment chunks refused"
    ),
    "budget_refused_chunks": (
        "transport", "receiver.budget_refused_chunks",
        "chunks whose placement the shared budget refused (not acknowledged)",
    ),
    "overlap_conflict_chunks": (
        "transport", "receiver.overlap_conflict_chunks",
        "chunks refused for overlapping placed bytes with different content",
    ),
    "data_touches": ("host", "data_touches", "payload placements into app memory"),
    "stream.bytes_placed": (
        "host", "data_touch_bytes", "fresh payload bytes placed into app memory"
    ),
})
_OOO_DISTANCE = declare(
    Histogram, "transport", "receiver.ooo_distance",
    "units between a chunk's C.SN and the in-order arrival frontier",
)
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
    decode_failures: int = 0
    duplicate_chunks: int = 0
    #: placements that wrote fresh bytes: the paper's single data touch
    #: (Figure 1), each payload byte moved across the bus exactly once.
    data_touches: int = 0
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
        # One look per call at whether a registry is installed: an
        # attribute read, so an unobserved receiver makes no obs call.
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        events = ReceiverEvents()
        self.packets_received += 1
        try:
            events.chunks = Packet.decode(frame).chunks
        except CodecError:
            events.decode_failed = True
            self.decode_failures += 1
        return self._receive(events.chunks, events, before)

    def receive_chunk(self, chunk: Chunk) -> ReceiverEvents:
        """Process one already-decoded chunk (router-less test paths)."""
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        return self._receive((chunk,), ReceiverEvents(), before)

    def receive_chunks(self, chunks: Iterable[Chunk]) -> ReceiverEvents:
        """Process a batch of already-decoded chunks.

        The endpoint demux path: a multiplexed packet is decoded once by
        the endpoint, and each connection's receiver sees only its own
        chunks — possibly interleaved with other conversations' chunks
        in the same envelope.
        """
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        events = ReceiverEvents()
        events.chunks = list(chunks)
        return self._receive(events.chunks, events, before)

    # ------------------------------------------------------------------

    def _receive(
        self, chunks: Sequence[Chunk], events: ReceiverEvents, before: tuple[int, ...] | None
    ) -> ReceiverEvents:
        """Process *chunks* in order, then publish the tallies' deltas
        since *before* (taken when a registry is installed)."""
        journey = obs_provenance._tracker  # the installed tracker or None, read once
        registry = obs_runtime._registry
        ooo_distance = None if registry is None else registry.instruments[_OOO_DISTANCE].observe
        stream, verifier = self.stream, self.verifier
        self.chunks_received += len(chunks)
        for chunk in chunks:
            ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = (
                chunk
            )
            if ctype is _DATA:
                if ooo_distance is not None:
                    ooo_distance(abs(c_sn - self._frontier_sn))
                if c_sn + length > self._frontier_sn:
                    self._frontier_sn = c_sn + length
                # (1) immediate placement into application memory, once: the
                # stream holds the bytes, the frame store only windows them.
                # Both refuse absurd offsets (corrupted SNs) and an ST that
                # contradicts a known end or span; the verifier still sees the
                # chunk and rejects the TPDU.
                unit_bytes = size * WORD_BYTES
                offset = c_sn * unit_bytes
                framed = False  # the stream has accepted; a refusal is the frame store's
                try:
                    fresh = (stream.place_last if c_st else stream.place)(offset, payload)
                    if fresh:
                        self.data_touches += 1
                        if journey is not None:
                            journey.chunk("placed", chunk, fresh=fresh)
                    else:
                        self.duplicate_chunks += 1
                        if journey is not None:
                            journey.chunk("duplicate", chunk)
                    framed = True
                    if self.frames.place(x_id, x_sn * unit_bytes, offset, len(payload), x_st):
                        events.completed_frames.append(x_id)
                        if journey is not None:
                            journey.emit("delivered", c_id, 0, 0, level="frame", x_id=x_id)
                except InconsistentOverlapError:
                    self.overlap_conflict_chunks += 1
                    if journey is not None:
                        journey.chunk("conflict", chunk, reason="overlap", **_site(framed))
                    continue  # unacknowledged: the content disagreement stays visible
                except BudgetExceededError:
                    self.budget_refused_chunks += 1
                    if journey is not None:
                        journey.chunk("refused", chunk, reason="budget")
                    continue  # unacknowledged: retransmission retries the placement
                except ValueError:
                    self.rejected_placements += 1
                    if journey is not None:
                        journey.chunk("refused", chunk, reason="bounds", **_site(framed))
            elif ctype is _SIGNALING:
                self._handle_signaling(chunk)
                continue
            elif ctype is not _ED:
                self.unknown_type_chunks += 1
                continue

            # (2)+(3) incremental verification via the end-to-end receiver.
            verdicts = verifier.receive(chunk)
            if verdicts:
                events.verdicts += verdicts
            # Only the end the stream accepted (now or earlier) closes it.
            if c_st and ctype is _DATA and stream.total_bytes == offset + len(payload):
                self.closed = True
                events.connection_closed = True

        if before is not None:
            _TALLIES.publish(before, self)
        return events

    def _handle_signaling(self, chunk: Chunk) -> None:
        try:
            config = parse_signaling_chunk(chunk)
        except SignalingError:
            self.signaling_rejected += 1
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
