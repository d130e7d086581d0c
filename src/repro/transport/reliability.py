"""Reliable delivery: timers, ACK chunks, identifier-preserving repeat.

Ties the transport's pieces into the loss-recovery loop Section 3.3
sketches: "retransmitted data should use the same identifiers as the
originally transmitted data", acknowledgments ride as chunks (Appendix
A), and — per the Kent-and-Mogul rebuttal in Section 3 — "a good
transport protocol implementation should reduce its TPDU size to match
the observed network error rate without any direct knowledge of whether
fragmentation is occurring" (:class:`AdaptiveTpduPolicy`).

:class:`ReliableSender` drives a :class:`~repro.transport.sender.
ChunkTransportSender` with per-TPDU retransmission timers on a
:class:`~repro.netsim.events.EventLoop`; :class:`ReliableReceiver`
wraps the transport receiver and emits ACK chunks for verified TPDUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.core.chunk import Chunk
from repro.core.types import ChunkType
from repro.netsim.events import EventLoop
from repro.obs import Histogram, Tallies, declare
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime
from repro.transport.acks import (
    MAX_ACKS_PER_CHUNK, build_ack_chunk, build_gap_report, parse_ack_chunk, parse_gap_report,
)
from repro.transport.connection import ConnectionConfig, build_signaling_chunk
from repro.transport.egress import EgressPacker
from repro.transport.receiver import ChunkTransportReceiver, ReceiverEvents
from repro.transport.sender import ChunkTransportSender, _Tpdu

__all__ = ["AdaptiveTpduPolicy", "ReliableSender", "ReliableReceiver"]

_SENDER_TALLIES = Tallies({
    "timeouts": ("transport", "rto_timeouts", "retransmission timers fired"),
    "tpdus_gave_up": ("transport", "tpdus_gave_up", "TPDUs abandoned after max retries"),
    "acks_received": ("transport", "acks_received", "TPDU ids acknowledged"),
})
_RECEIVER_TALLIES = Tallies(
    {"ack_batches": ("transport", "ack_batches", "ACK packet flushes")}
)
_ACK_BATCH_SIZE = declare(Histogram, "transport", "ack_batch_size", "TPDU ids per ACK flush")
_ED = ChunkType.ERROR_DETECTION  # an enum member read is ~0.1 µs on CPython 3.11
#: k: a TPDU still incomplete once k TPDUs sent after it have verified is
#: lost, not reordered (Istrate; Wu et al.).  Routers repacking chunks into
#: smaller packets reorder: on lossy_path, mux_256 and sharded_1k (seeds 1993,
#: 7) a TPDU that lost no chunk verified behind at most one later TPDU, so 2
#: is the least k that reports nothing still in flight.  More delays repairs.
REORDER_TPDUS = 2
_UNSEEN = (-1,) * REORDER_TPDUS  # no T.ID verified yet: the horizon is at -1


@dataclass
class AdaptiveTpduPolicy:
    """Multiplicative-decrease / additive-increase TPDU sizing.

    A TPDU that needs retransmission signals loss: the policy halves the
    TPDU size (down to *min_units*).  A run of *grow_after* first-try
    successes grows it back by *grow_step* (up to *max_units*).  The
    transport never learns whether the network fragmented anything —
    only its own loss observations matter, exactly as Section 3 argues.
    """

    min_units: int = 16
    max_units: int = 4096
    grow_after: int = 8
    grow_step: int = 64
    current_units: int = 1024
    _success_streak: int = field(default=0, init=False)

    def on_first_try_success(self) -> int:
        self._success_streak += 1
        if self._success_streak >= self.grow_after:
            self._success_streak = 0
            self.current_units = min(self.max_units, self.current_units + self.grow_step)
        return self.current_units

    def on_loss(self) -> int:
        self._success_streak = 0
        self.current_units = max(self.min_units, self.current_units // 2)
        return self.current_units


@dataclass
class ReliableSender:
    """Sender half of a reliable chunk connection.

    Attributes:
        loop: the simulation event loop used for retransmission timers.
        transmit: callable taking wire bytes (the network's ingress);
            may be ``None`` when *transmit_chunks* is supplied instead.
        config: connection parameters (also produces the establishment
            signaling chunk, sent with the first frame).
        mtu: first-hop MTU for packing.
        rto: retransmission timeout in seconds (doubles per retry).
        max_retries: give-up threshold per TPDU.
        policy: optional adaptive TPDU sizing.
        transmit_chunks: endpoint seam — when set, outgoing chunks are
            handed over un-packed so the owning
            :class:`~repro.transport.endpoint.ChunkEndpoint` can mix
            several conversations' chunks into shared packets.
        resignal_until_acked: re-emit the establishment chunk with every
            retransmission until the first ACK arrives, so a lost
            signaling packet cannot strand the whole conversation
            behind the receiver's unknown-C.ID refusal.

    Retransmission timers cover *completed* TPDUs (those whose ED chunk
    exists); data in a not-yet-complete trailing TPDU is unprotected
    until the TPDU fills.  Finish a transfer with
    ``send_frame(..., end_of_connection=True)``, which closes the final
    TPDU and emits its ED chunk.

    A timed TPDU is its retransmit history record; acknowledged or given
    up, it leaves the history.  The SIG chunk is built once.
    """

    loop: EventLoop
    transmit: Callable[[bytes], None] | None
    config: ConnectionConfig
    mtu: int = 1500
    rto: float = 0.05
    max_retries: int = 12
    policy: AdaptiveTpduPolicy | None = None
    transmit_chunks: Callable[[list[Chunk]], None] | None = None
    resignal_until_acked: bool = False

    sender: ChunkTransportSender = field(init=False)
    retransmissions: int = field(init=False, default=0)
    gave_up: list[int] = field(init=False, default_factory=list)
    #: retransmission timers that fired, and TPDU ids acknowledged.
    timeouts: int = field(init=False, default=0)
    acks_received: int = field(init=False, default=0)
    #: gap reports naming no timed TPDU, or ranges outside the one named.
    gap_reports_refused: int = field(init=False, default=0)
    _established: bool = field(init=False, default=False, repr=False)
    #: the SIG chunk, kept for re-signals until the first ACK arrives.
    _signal: Chunk | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.sender = ChunkTransportSender(self.config)
        if self.policy is not None:
            self.policy.current_units = self.config.tpdu_units

    # ------------------------------------------------------------------

    def send_frame(
        self,
        payload: bytes,
        frame_id: int | None = None,
        end_of_connection: bool = False,
    ) -> None:
        """Frame, transmit, and arm timers for any completed TPDUs."""
        chunks = self.sender.send_frame(payload, frame_id, end_of_connection)
        journey = obs_provenance._tracker
        if journey is not None:
            for chunk in chunks:
                if chunk.type is ChunkType.DATA:
                    journey.chunk("formed", chunk, t=self.loop.now)
        if not self._established:  # the SIG chunk goes first, once
            self._established = True
            chunks.insert(0, build_signaling_chunk(self.config))
            if self.resignal_until_acked:
                self._signal = chunks[0]
        (self.transmit_chunks or self._packer.ship)(chunks)
        tpdus = self.sender._tpdus
        for chunk in chunks:
            if chunk[0] is _ED:
                record = tpdus.get(chunk[6])
                if record is None:  # trimmed from the history before it was timed
                    self._give_up(chunk[6])
                else:
                    record.session = self
                    self.loop.schedule(self.rto, record.expire)

    def handle_ack_chunk(self, chunk: Chunk) -> None:
        """Process an arriving ACK chunk (possibly piggybacked) or gap report.
        Only a TPDU this session times counts, and a gap report is honoured
        once per timer round; one naming anything else is refused."""
        before = _SENDER_TALLIES.read(self) if obs_runtime._registry is not None else None
        tpdus = self.sender._tpdus
        if chunk[8]:  # T.ST: a gap report on TPDU T.ID
            record, gaps = tpdus.get(chunk[6]), None
            if record is not None and record.session is not None:
                last = record.chunks[-1]
                gaps = parse_gap_report(chunk, last[7] + last[2])
            if record is None or gaps is None:
                self.gap_reports_refused += 1
            elif record.gaps is None:
                record.gaps = gaps
                self._repeat(record, self.sender.retransmit(record.t_id, gaps), record.retries + 1)
        for t_id in parse_ack_chunk(chunk):
            record = tpdus.get(t_id)
            if record is not None and record.session is not None:
                self.acks_received += 1
                self._signal = None  # the far table has the C.ID: no more re-signals
                record.drop(tpdus)
                if self.policy is not None and record.retries == 0 and record.gaps is None:
                    self._resize(self.policy.on_first_try_success())
        if before is not None:
            _SENDER_TALLIES.publish(before, self)

    @property
    def tpdus_gave_up(self) -> int:
        """TPDUs abandoned after ``max_retries``: the length of :attr:`gave_up`."""
        return len(self.gave_up)

    @property
    def outstanding(self) -> list[int]:
        """Timed TPDUs: the history, less a trailing TPDU still filling."""
        return [t_id for t_id, record in self.sender._tpdus.items() if record.session is not None]

    @property
    def finished(self) -> bool:
        return not self.outstanding

    @cached_property
    def _packer(self) -> EgressPacker:
        """This session's own wire, for when no endpoint is in front of it."""
        return EgressPacker(self, self.loop)

    @property
    def bytes_sent(self) -> int:
        """Wire bytes this session transmitted itself (none behind an endpoint)."""
        return self._packer.bytes_sent

    # ------------------------------------------------------------------

    def _timeout(self, record: _Tpdu) -> None:
        """*record*'s timer fired while it was outstanding."""
        before = _SENDER_TALLIES.read(self) if obs_runtime._registry is not None else None
        self.timeouts += 1
        record.retries += 1
        if record.retries > self.max_retries:
            if before is not None:
                _SENDER_TALLIES.publish(before, self)
            record.drop(self.sender._tpdus)
            self._give_up(record.t_id)
            return
        if before is not None:
            _SENDER_TALLIES.publish(before, self)
        if self.policy is not None:
            self._resize(self.policy.on_loss())
        # The units this round's report named (else all), and the ED chunk:
        # it draws a re-ACK if only the ACK was lost.  A new round begins.
        chunks, record.gaps = self.sender.retransmit(record.t_id, record.gaps, True), None
        self._repeat(record, chunks, record.retries)
        self.loop.schedule(self.rto * (2 ** record.retries), record.expire)

    def _repeat(self, record: _Tpdu, chunks: list[Chunk], gen: int) -> None:
        """Ship *record*'s repeated *chunks* (Section 3.3's same identifiers),
        traced as retransmission generation *gen* (0 is the first send)."""
        self.retransmissions += 1
        journey = obs_provenance._tracker
        if journey is not None:
            for chunk in chunks:
                if chunk.type is ChunkType.DATA:
                    journey.chunk("retransmit", chunk, t=self.loop.now, gen=gen)
        if self._signal is not None:
            chunks.insert(0, self._signal)
        (self.transmit_chunks or self._packer.ship)(chunks)

    def _give_up(self, t_id: int) -> None:
        """Abandon TPDU *t_id*: past ``max_retries``, or trimmed while timed."""
        before = _SENDER_TALLIES.read(self) if obs_runtime._registry is not None else None
        self.gave_up.append(t_id)
        if before is not None:
            _SENDER_TALLIES.publish(before, self)
        journey = obs_provenance._tracker
        if journey is not None:
            journey.emit(
                "gave_up", self.config.connection_id, 0, 0, t=self.loop.now,
                level="tpdu", t_id=t_id,
            )

    def _resize(self, units: int) -> None:
        if units != self.sender.tpdu_units:
            self.sender.set_tpdu_units(units)


@dataclass
class ReliableReceiver:
    """Receiver half: verify TPDUs, acknowledge them as ACK chunks.

    Freshly verified TPDUs are acknowledged at once; duplicate TPDU
    arrivals re-ACK (the original ACK may have been lost).  An ACK chunk
    carries the C.ID of the TPDUs it acknowledges, read off their
    verdicts and ED chunks, so a TPDU verified before any SIGNALING chunk
    arrived is still ACKed on its own conversation.  Behind an endpoint,
    ACKs share envelopes with reverse-path data (Appendix A piggybacking).
    """

    transmit: Callable[[bytes], None] | None
    mtu: int = 1500
    receiver: ChunkTransportReceiver = field(default_factory=ChunkTransportReceiver)
    #: endpoint seam — when set, ACK chunks are handed over un-packed so
    #: the endpoint can mix acknowledgments for several conversations
    #: (and reverse-path data) into shared packets.
    transmit_chunks: Callable[[list[Chunk]], None] | None = None
    #: ACK batches handed to the wire (one per conversation per call).
    ack_batches: int = field(init=False, default=0)
    #: (C.ID, T.ID) of every TPDU acknowledged, made at the first ACK.
    _verified: set[tuple[int, int]] | None = field(init=False, default=None, repr=False)
    #: C.ID -> its REORDER_TPDUS newest verified T.IDs, ascending.
    _newest: dict[int, tuple[int, ...]] = field(init=False, default_factory=dict, repr=False)

    @cached_property
    def _packer(self) -> EgressPacker:
        """This session's own wire, for when no endpoint is in front of it."""
        return EgressPacker(self)

    @property
    def acks_sent(self) -> int:
        """ACK packets this session transmitted itself (none behind an endpoint)."""
        return self._packer.packets_sent

    def receive_packet(self, frame: bytes) -> ReceiverEvents:
        events = self.receiver.receive_packet(frame)
        self._acknowledge(events)
        return events

    def receive_chunks(self, chunks: list[Chunk]) -> ReceiverEvents:
        """Endpoint demux path: this connection's slice of a packet."""
        events = self.receiver.receive_chunks(chunks)
        self._acknowledge(events)
        return events

    def _acknowledge(self, events: ReceiverEvents) -> None:
        """ACK the TPDUs this call verified and re-ACK retransmitted ED
        chunks of TPDUs verified earlier: one batch per conversation."""
        verified = self._verified
        if verified is None and not events.verdicts:
            return  # nothing verified, now or before
        acks: dict[int, list[int]] = {}
        reports: list[Chunk] = []
        newest = self._newest
        for verdict in events.verdicts:
            if verdict.ok:
                c_id, t_id = verdict.c_id, verdict.t_id
                acks.setdefault(c_id, []).append(t_id)
                # Gap reports: each incomplete TPDU once, as the horizon (the
                # REORDER_TPDUS-th newest verified T.ID) passes it.  The old
                # horizon was verified: in order, nothing lies between.
                window = newest.get(c_id, _UNSEEN)
                if t_id > window[0]:
                    newest[c_id] = moved = tuple(sorted((*window, t_id)))[1:]
                    span = range(max(window[0] + 1, moved[0] - MAX_ACKS_PER_CHUNK), moved[0])
                    if span:
                        for behind, gaps in self.receiver.verifier.gaps(c_id, span):
                            reports.append(build_gap_report(c_id, behind, gaps))
        if verified is not None:
            for chunk in events.chunks:
                if chunk[0] is _ED and (chunk[3], chunk[6]) in verified:
                    t_ids = acks.setdefault(chunk[3], [])
                    if chunk[6] not in t_ids:
                        t_ids.append(chunk[6])
        if not acks:
            return
        if verified is None:
            verified = self._verified = set()
        registry = obs_runtime._registry
        chunks = []
        for c_id, t_ids in acks.items():
            before = _RECEIVER_TALLIES.read(self) if registry is not None else None
            self.ack_batches += 1
            if before is not None:
                registry.instruments[_ACK_BATCH_SIZE].observe(len(t_ids))
                _RECEIVER_TALLIES.publish(before, self)
            for t_id in t_ids:
                verified.add((c_id, t_id))
            for start in range(0, len(t_ids), MAX_ACKS_PER_CHUNK):
                chunks.append(build_ack_chunk(c_id, t_ids[start : start + MAX_ACKS_PER_CHUNK]))
        (self.transmit_chunks or self._packer.ship)(chunks + reports)
