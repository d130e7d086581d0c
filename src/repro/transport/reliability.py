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
from repro.transport.acks import build_ack_chunk, parse_ack_chunk
from repro.transport.connection import ConnectionConfig
from repro.transport.egress import EgressPacker
from repro.transport.receiver import ChunkTransportReceiver, ReceiverEvents
from repro.transport.sender import ChunkTransportSender

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
class _Outstanding:
    """Sender-side per-TPDU retransmission state."""

    retries: int = 0
    timer_generation: int = 0


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
    _outstanding: dict[int, _Outstanding] = field(init=False, default_factory=dict)
    _established: bool = field(init=False, default=False)
    _acked_once: bool = field(init=False, default=False)
    retransmissions: int = field(init=False, default=0)
    gave_up: list[int] = field(init=False, default_factory=list)
    #: retransmission timers that fired, and TPDU ids acknowledged.
    timeouts: int = field(init=False, default=0)
    acks_received: int = field(init=False, default=0)

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
        chunks: list[Chunk] = []
        if not self._established:
            chunks.append(self.sender.establishment_chunk())
            self._established = True
        new_chunks = self.sender.send_frame(
            payload, frame_id=frame_id, end_of_connection=end_of_connection
        )
        chunks += new_chunks
        journey = obs_provenance._tracker
        if journey is not None:
            for chunk in new_chunks:
                if chunk.type is ChunkType.DATA:
                    journey.chunk("formed", chunk, t=self.loop.now)
        self._ship(chunks)
        for chunk in new_chunks:
            if chunk.type is ChunkType.ERROR_DETECTION:
                self._arm(chunk.t_id)

    def handle_ack_chunk(self, chunk: Chunk) -> None:
        """Process an arriving ACK chunk (possibly piggybacked)."""
        before = _SENDER_TALLIES.read(self) if obs_runtime._registry is not None else None
        self._acked_once = True
        for t_id in parse_ack_chunk(chunk):
            self.acks_received += 1
            if t_id in self._outstanding:
                state = self._outstanding.pop(t_id)
                self.sender.acknowledge(t_id)
                if self.policy is not None and state.retries == 0:
                    self._resize(self.policy.on_first_try_success())
        if before is not None:
            _SENDER_TALLIES.publish(before, self)

    @property
    def tpdus_gave_up(self) -> int:
        """TPDUs abandoned after ``max_retries``: the length of :attr:`gave_up`."""
        return len(self.gave_up)

    @property
    def outstanding(self) -> list[int]:
        return list(self._outstanding)

    @property
    def finished(self) -> bool:
        return not self._outstanding

    @cached_property
    def _packer(self) -> EgressPacker:
        """This session's own wire, for when no endpoint is in front of it."""
        return EgressPacker(self, self.loop)

    @property
    def bytes_sent(self) -> int:
        """Wire bytes this session transmitted itself (none behind an endpoint)."""
        return self._packer.bytes_sent

    # ------------------------------------------------------------------

    def _ship(self, chunks: list[Chunk]) -> None:
        if self.transmit_chunks is not None:
            self.transmit_chunks(chunks)
        else:
            self._packer.ship(chunks)

    def _arm(self, t_id: int) -> None:
        state = self._outstanding.setdefault(t_id, _Outstanding())
        generation = state.timer_generation
        delay = self.rto * (2 ** state.retries)
        self.loop.schedule(delay, lambda: self._timeout(t_id, generation))

    def _timeout(self, t_id: int, generation: int) -> None:
        state = self._outstanding.get(t_id)
        if state is None or state.timer_generation != generation:
            return  # acked, or superseded by a newer timer
        before = _SENDER_TALLIES.read(self) if obs_runtime._registry is not None else None
        journey = obs_provenance._tracker
        self.timeouts += 1
        state.retries += 1
        state.timer_generation += 1
        if state.retries > self.max_retries:
            del self._outstanding[t_id]
            self.gave_up.append(t_id)
            if before is not None:
                _SENDER_TALLIES.publish(before, self)
            if journey is not None:
                journey.emit(
                    "gave_up", self.config.connection_id, 0, 0, t=self.loop.now,
                    level="tpdu", t_id=t_id,
                )
            return
        self.retransmissions += 1
        if before is not None:
            _SENDER_TALLIES.publish(before, self)
        if self.policy is not None:
            self._resize(self.policy.on_loss())
        # Same identifiers as the original transmission (Section 3.3).
        chunks = self.sender.retransmit(t_id)
        if journey is not None:
            for chunk in chunks:
                if chunk.type is ChunkType.DATA:
                    journey.chunk("retransmit", chunk, t=self.loop.now, gen=state.retries)
        if self.resignal_until_acked and not self._acked_once:
            chunks.insert(0, self.sender.establishment_chunk())
        self._ship(chunks)
        self._arm(t_id)

    def _resize(self, units: int) -> None:
        if units != self.sender.tpdu_units:
            self.sender.set_tpdu_units(units)


@dataclass
class ReliableReceiver:
    """Receiver half: verify TPDUs, acknowledge them as ACK chunks.

    ACKs for freshly verified TPDUs are handed to *send_ack* as wire
    packets; duplicate TPDU arrivals re-ACK (the original ACK may have
    been lost).  Reverse-path data can be piggybacked by supplying
    *reverse_chunks* at ack time via :meth:`flush_acks`.
    """

    transmit: Callable[[bytes], None] | None
    mtu: int = 1500
    receiver: ChunkTransportReceiver = field(default_factory=ChunkTransportReceiver)
    #: endpoint seam — when set, ACK chunks are handed over un-packed so
    #: the endpoint can mix acknowledgments for several conversations
    #: (and reverse-path data) into shared packets.
    transmit_chunks: Callable[[list[Chunk]], None] | None = None
    _verified: set[int] = field(init=False, default_factory=set)
    #: :meth:`flush_acks` calls: ACK batches handed to the wire.
    ack_batches: int = field(init=False, default=0)

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
        to_ack = [v.t_id for v in events.verdicts if v.ok]
        # Re-acknowledge retransmissions of already verified TPDUs,
        # whose verdicts fired earlier (the original ACK may be lost).
        for chunk in events.chunks:
            if (
                chunk.type is ChunkType.ERROR_DETECTION
                and chunk.t_id in self._verified
                and chunk.t_id not in to_ack
            ):
                to_ack.append(chunk.t_id)
        if to_ack:
            self._verified.update(to_ack)
            self.flush_acks(to_ack)

    def flush_acks(self, t_ids: list[int], reverse_chunks: list[Chunk] | None = None) -> None:
        connection = self.receiver.config.connection_id if self.receiver.config else 0
        registry = obs_runtime._registry
        before = _RECEIVER_TALLIES.read(self) if registry is not None else None
        self.ack_batches += 1
        if before is not None:
            registry.instruments[_ACK_BATCH_SIZE].observe(len(t_ids))
            _RECEIVER_TALLIES.publish(before, self)
        chunks = list(reverse_chunks or [])
        for start in range(0, len(t_ids), 64):
            chunks.append(build_ack_chunk(connection, t_ids[start : start + 64]))
        if self.transmit_chunks is not None:
            self.transmit_chunks(chunks)
        else:
            self._packer.ship(chunks)
