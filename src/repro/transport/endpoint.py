"""Multiplexed chunk endpoint: C.ID demux, lifecycle, shared accounting.

The paper's chunks are self-describing precisely so that a receiver can
process *any* interleaving of conversations: "the connection ID is
intended to refer to a single, unmultiplexed application-to-application
conversation" (Section 2), and Appendix A extends packets to "carry
chunks from multiple connections".  :class:`ChunkEndpoint` is that
receiver (and its sending twin): one endpoint owns a
:class:`ConnectionTable` keyed by C.ID, demultiplexes every arriving
packet chunk-by-chunk to per-connection transport sessions, and drives
the connection lifecycle —

- **establish** on a SIGNALING chunk (strictly parsed; malformed
  establishments are refused and counted);
- **close** when a chunk with the C.ST bit arrives;
- **evict** idle or closed-and-lingering connections, reclaiming their
  placement regions back into the shared pool;
- **refuse** data for unknown or evicted C.IDs — counted and surfaced,
  never silently dropped, so the sender's loss recovery (which reuses
  identifiers, Section 3.3) repairs a lost establishment.

All connections share one :class:`~repro.netsim.events.EventLoop` for
timers and one :class:`~repro.host.budget.SharedPlacementBudget` for
receive memory, so no single conversation can lock up the host.  On
egress, sessions hand chunks (not packets) to the endpoint, which packs
chunks from *different* conversations into shared envelopes — the
Appendix A mixture as the normal transmit path, not a special case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.bounded import BoundedSet
from repro.core.chunk import Chunk
from repro.core.errors import CodecError, EndpointError, SignalingError
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.host.budget import SharedPlacementBudget
from repro.host.delivery import PlacementBuffer
from repro.host.memory import TouchLedger
from repro.netsim.events import EventLoop
from repro.obs import Gauge, Tallies, declare, flight_dump
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime
from repro.transport.connection import ConnectionConfig, parse_signaling_chunk
from repro.transport.egress import EgressPacker
from repro.transport.receiver import ChunkTransportReceiver, ReceiverEvents
from repro.transport.reliability import (
    AdaptiveTpduPolicy,
    ReliableReceiver,
    ReliableSender,
)

__all__ = [
    "ConnectionState",
    "Connection",
    "ConnectionTable",
    "EndpointEvents",
    "ChunkEndpoint",
]

#: Published by each of the endpoint's entry points (receive, open,
#: close, sweep) at its end; the table's totals count with them.
_TALLIES = Tallies({
    "packets_received": ("transport", "endpoint.packets_received", "packets demultiplexed"),
    "chunks_routed": ("transport", "endpoint.chunks_routed", "chunks routed to a connection"),
    "refused_unknown": (
        "transport", "endpoint.refused_unknown", "chunks refused: C.ID never established"
    ),
    "refused_evicted": (
        "transport", "endpoint.refused_evicted", "chunks refused: C.ID evicted or refused"
    ),
    "acks_unroutable": (
        "transport", "endpoint.acks_unroutable", "ACK chunks with no sender session"
    ),
    "table.established_total": (
        "transport", "endpoint.connections_established", "connections entered into the table"
    ),
    "table.closed_total": (
        "transport", "endpoint.connections_closed", "connections closed by C.ST"
    ),
    "table.evicted_total": (
        "transport", "endpoint.connections_evicted", "connections evicted (idle/closed sweep)"
    ),
    "connections_refused": (
        "transport", "endpoint.connections_refused",
        "establishments refused (budget admission or capacity)",
    ),
    "stalled_evictions": (
        "transport", "endpoint.stalled_evictions",
        "connections evicted for making no receive progress (slow-loris defense)",
    ),
})
_ACTIVE = declare(Gauge, "transport", "endpoint.connections_active", "current table size")


class ConnectionState(enum.Enum):
    """Lifecycle of a table entry (evicted entries leave the table)."""

    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclass
class Connection:
    """One conversation's endpoint-owned state and sessions.

    A connection opened locally has a *sender* session; one established
    by an arriving SIGNALING chunk has a *receiver* session.  (A
    bidirectional conversation has both.)  The ledger records this
    connection's NIC→application placements so the 1.0-touch/byte
    budget is checkable per conversation, not just in aggregate.
    """

    config: ConnectionConfig
    state: ConnectionState = ConnectionState.ESTABLISHED
    established_at: float = 0.0
    last_activity: float = 0.0
    closed_at: float | None = None
    receiver: ReliableReceiver | None = None
    sender: ReliableSender | None = None
    ledger: TouchLedger = field(default_factory=TouchLedger)
    chunks_in: int = 0
    payload_bytes_in: int = 0
    _endpoint: "ChunkEndpoint | None" = field(default=None, repr=False)
    _touched_bytes: int = field(default=0, repr=False)
    #: progress-policing watermark: payload bytes seen at the start of
    #: the current progress window (slow-loris defense, see
    #: :attr:`ChunkEndpoint.min_progress_bytes`).
    _progress_bytes: int = field(default=0, repr=False)
    _progress_marked_at: float = field(default=-1.0, repr=False)

    @property
    def connection_id(self) -> int:
        return self.config.connection_id

    # ------------------------------------------------------------------

    def send_frame(
        self,
        payload: bytes,
        frame_id: int | None = None,
        end_of_connection: bool = False,
    ) -> None:
        """Frame and transmit one external PDU on this conversation."""
        if self.sender is None:
            raise EndpointError(
                f"connection {self.connection_id} has no sender session"
            )
        if self.state is not ConnectionState.ESTABLISHED:
            raise EndpointError(
                f"connection {self.connection_id} is {self.state.value}"
            )
        self.sender.send_frame(
            payload, frame_id=frame_id, end_of_connection=end_of_connection
        )
        if self._endpoint is not None:
            self.last_activity = self._endpoint.loop.now

    # -- receive-side conveniences -------------------------------------

    def stream_bytes(self) -> bytes:
        """The conversation's reconstructed byte stream so far."""
        if self.receiver is None:
            return b""
        return self.receiver.receiver.stream_bytes()

    def verified_tpdus(self) -> int:
        return 0 if self.receiver is None else self.receiver.receiver.verified_tpdus()

    def touches_per_byte(self) -> float:
        """Bus touches per placed payload byte (the paper's budget: 1.0)."""
        if self.receiver is None:
            return 0.0
        placed = self.receiver.receiver.stream.bytes_placed
        return self.ledger.touches_per_payload_byte(placed)

    @property
    def finished(self) -> bool:
        """True when a sender session has nothing outstanding."""
        return self.sender is None or self.sender.finished


@dataclass
class ConnectionTable:
    """The C.ID → connection map plus lifecycle accounting.

    Eviction leaves a tombstone in ``evicted_ids`` so late chunks for a
    reclaimed conversation are refused as *evicted* (distinguishable
    from never-established C.IDs) without holding per-connection state.
    The tombstone set itself is FIFO-bounded (:class:`BoundedSet`) so
    C.ID churn cannot grow it without limit; a late chunk for a
    *forgotten* tombstone degrades to the ``refused_unknown`` count.
    """

    connections: dict[int, Connection] = field(default_factory=dict)
    evicted_ids: BoundedSet[int] = field(default_factory=BoundedSet)
    established_total: int = 0
    closed_total: int = 0
    evicted_total: int = 0
    #: when set, caps the tombstone FIFO at this many entries instead of
    #: the :class:`BoundedSet` default — a sharded endpoint divides its
    #: endpoint-wide bound across per-shard tables so N shards cannot
    #: hold N× the tombstone memory of one endpoint.
    tombstone_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.tombstone_capacity is not None:
            self.evicted_ids = BoundedSet(max_entries=self.tombstone_capacity)

    def __len__(self) -> int:
        return len(self.connections)

    def __contains__(self, connection_id: int) -> bool:
        return connection_id in self.connections

    def get(self, connection_id: int) -> Connection | None:
        return self.connections.get(connection_id)

    def add(self, connection: Connection) -> None:
        cid = connection.connection_id
        if cid in self.connections:
            raise EndpointError(f"C.ID {cid} is already in the connection table")
        self.connections[cid] = connection
        self.established_total += 1
        registry = obs_runtime._registry
        if registry is not None:
            registry.instruments[_ACTIVE].set(len(self.connections))

    def mark_closed(self, connection: Connection, now: float) -> None:
        if connection.state is ConnectionState.CLOSED:
            return
        connection.state = ConnectionState.CLOSED
        connection.closed_at = now
        self.closed_total += 1

    def evict(self, connection_id: int) -> tuple[Connection, int | None] | None:
        """Remove one entry (tombstoning its C.ID); returns it, with the
        C.ID whose tombstone that forgot (or None), if there was one."""
        connection = self.connections.pop(connection_id, None)
        if connection is None:
            return None
        forgotten = self.evicted_ids.add(connection_id)
        self.evicted_total += 1
        registry = obs_runtime._registry
        if registry is not None:
            registry.instruments[_ACTIVE].set(len(self.connections))
        return connection, forgotten

    def idle_connections(
        self, now: float, idle_timeout: float, close_linger: float
    ) -> list[int]:
        """C.IDs due for eviction at *now*.

        Closed connections linger only *close_linger* (long enough to
        re-ACK a retransmission); established ones must be idle for
        *idle_timeout*.  Entries with an unfinished sender session are
        never reaped — outstanding TPDUs still own retransmission
        timers.
        """
        due: list[int] = []
        for cid, connection in self.connections.items():
            if not connection.finished:
                continue
            window = (
                close_linger
                if connection.state is ConnectionState.CLOSED
                else idle_timeout
            )
            if now - connection.last_activity >= window:
                due.append(cid)
        return due


@dataclass
class EndpointEvents:
    """What demultiplexing one packet produced, per connection."""

    per_connection: dict[int, ReceiverEvents] = field(default_factory=dict)
    established: list[int] = field(default_factory=list)
    refused_chunks: int = 0
    decode_failed: bool = False


@dataclass
class ChunkEndpoint:
    """A multiplexed transport endpoint over one wire.

    Usage (sender side)::

        endpoint = ChunkEndpoint(loop, transmit=link.send, mtu=1500)
        conn = endpoint.open_connection(ConnectionConfig(connection_id=7))
        conn.send_frame(data, end_of_connection=True)

    Usage (receiver side)::

        endpoint = ChunkEndpoint(loop, transmit=reverse_link.send)
        endpoint.receive_packet(frame)          # demux + establish + ACK
        endpoint.connection(7).stream_bytes()

    One endpoint may hold both roles at once (ACKs for local senders
    and data for established receivers ride the same packets).
    """

    loop: EventLoop
    transmit: Callable[[bytes], None] | None = None
    mtu: int = 1500
    budget: SharedPlacementBudget = field(default_factory=SharedPlacementBudget)
    table: ConnectionTable = field(default_factory=ConnectionTable)
    #: established connections idle this long (sim seconds) are evicted
    #: by :meth:`sweep`.
    idle_timeout: float = 30.0
    #: closed connections linger this long for retransmission re-ACKs
    #: (defaults to ``idle_timeout`` when None).
    close_linger: float | None = None
    #: capacity cap; admission beyond it is refused (None = unbounded).
    max_connections: int | None = None
    #: egress batching window in sim seconds (0 = flush in a same-time
    #: event, still batching every chunk enqueued at this instant).
    flush_window: float = 0.0
    #: slow-loris defense: when set, :meth:`sweep` evicts any
    #: established receiver conversation whose payload intake grew by
    #: fewer than this many bytes over a full ``progress_window`` —
    #: trickling keep-alive traffic refreshes ``last_activity`` but
    #: cannot pin a fair share forever.  ``None`` disables policing.
    min_progress_bytes: int | None = None
    #: seconds over which ``min_progress_bytes`` of intake is required.
    progress_window: float = 10.0
    #: observation seam: called with each connection at eviction time,
    #: *before* its sessions are dropped — harnesses snapshot delivery
    #: state here, since eviction reclaims it.
    on_evict: Callable[[Connection], None] | None = None
    #: when this endpoint runs as one worker of a
    #: :class:`repro.transport.shard.ShardedEndpoint`, its shard number —
    #: trace events and journey records gain a ``shard=<i>`` field, and
    #: its sessions enqueue into lane ``i`` of :attr:`egress`.  ``None``
    #: (the unsharded default) emits the exact same telemetry as before
    #: sharding existed.
    shard_index: int | None = None

    packets_received: int = 0
    decode_failures: int = 0
    refused_unknown: int = 0
    refused_evicted: int = 0
    acks_unroutable: int = 0
    connections_refused: int = 0
    stalled_evictions: int = 0
    #: chunks handed to a connection's sessions (ACKs to its sender,
    #: the rest to its receiver).
    chunks_routed: int = 0

    #: the packer behind every session of this endpoint; the sharded
    #: composition replaces each worker's with the one it shares.
    egress: EgressPacker = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.egress = EgressPacker(self, self.loop, self.flush_window)

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------

    def open_connection(
        self,
        config: ConnectionConfig,
        rto: float = 0.05,
        max_retries: int = 12,
        policy: AdaptiveTpduPolicy | None = None,
    ) -> Connection:
        """Open a locally originated conversation; returns its handle.

        The sender session shares the endpoint's event loop for its
        retransmission timers and the endpoint's egress for its chunks;
        it re-signals establishment with every retransmission until the
        first ACK proves the far table has the C.ID.
        """
        cid = config.connection_id
        if cid in self.table:
            raise EndpointError(f"C.ID {cid} is already open")
        if cid in self.table.evicted_ids:
            raise EndpointError(f"C.ID {cid} was evicted; pick a fresh C.ID")
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        if (
            self.max_connections is not None
            and len(self.table) >= self.max_connections
        ):
            self.connections_refused += 1
            if before is not None:
                _TALLIES.publish(before, self)
            raise EndpointError(
                f"endpoint at capacity ({self.max_connections} connections)"
            )
        sender = ReliableSender(
            self.loop,
            None,
            config,
            mtu=self.mtu,
            rto=rto,
            max_retries=max_retries,
            policy=policy,
            transmit_chunks=partial(self.egress.enqueue, self.shard_index or 0),
            resignal_until_acked=True,
        )
        connection = Connection(
            config=config,
            established_at=self.loop.now,
            last_activity=self.loop.now,
            sender=sender,
            _endpoint=self,
        )
        self.table.add(connection)
        if before is not None:
            _TALLIES.publish(before, self)
        return connection

    def flush(self) -> None:
        """Force any pending egress chunks onto the wire immediately."""
        self.egress.flush()

    @property
    def bytes_sent(self) -> int:
        return self.egress.bytes_sent

    @property
    def packets_sent(self) -> int:
        return self.egress.packets_sent

    @property
    def mixed_packets(self) -> int:
        return self.egress.mixed_packets

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------

    def _shard_labels(self) -> dict[str, int]:
        """Extra event/journey fields: ``{"shard": i}`` when sharded."""
        if self.shard_index is None:
            return {}
        return {"shard": self.shard_index}

    def receive_packet(self, frame: bytes) -> EndpointEvents:
        """Decode one wire packet and demultiplex its chunks by C.ID."""
        try:
            chunks = Packet.decode(frame).chunks
        except CodecError:
            # Still a received packet: count it, demultiplex nothing.
            self.decode_failures += 1
            events = self.receive_chunks([])
            events.decode_failed = True
            return events
        return self.receive_chunks(chunks)

    def receive_chunks(self, chunks: list[Chunk]) -> EndpointEvents:
        """Demultiplex already-decoded *chunks* (the decode-once path).

        :meth:`repro.transport.shard.ShardedEndpoint.receive_packet`
        decodes each wire packet exactly once, then hands every shard its
        own chunk group through this entry — re-encoding/re-decoding per
        shard would break the touch budget the labels exist to protect.
        """
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        events = EndpointEvents()
        self.packets_received += 1
        self._dispatch(chunks, events)
        if before is not None:
            _TALLIES.publish(before, self)
        return events

    def _dispatch(self, chunks: list[Chunk], events: EndpointEvents) -> None:
        now = self.loop.now
        # Group by conversation, preserving arrival order within each.
        groups: dict[int, list[Chunk]] = {}
        for chunk in chunks:
            groups.setdefault(chunk.c_id, []).append(chunk)
        for cid, group in groups.items():
            self._route_group(cid, group, now, events)

    def _route_group(
        self, cid: int, group: list[Chunk], now: float, events: EndpointEvents
    ) -> None:
        acks = [c for c in group if c.type is ChunkType.ACK]
        rest = [c for c in group if c.type is not ChunkType.ACK]
        connection = self.table.get(cid)

        if acks:
            if connection is not None and connection.sender is not None:
                for ack in acks:
                    connection.sender.handle_ack_chunk(ack)
                connection.last_activity = now
                self.chunks_routed += len(acks)
            else:
                self.acks_unroutable += len(acks)
        if not rest:
            return

        if connection is None or connection.receiver is None:
            connection = self._try_establish(cid, connection, rest, now, events)
        if connection is None or connection.receiver is None:
            self._refuse(cid, rest, events)
            return

        connection.chunks_in += len(rest)
        payload_bytes = sum(c.payload_bytes for c in rest if c.is_data)
        connection.payload_bytes_in += payload_bytes
        self.chunks_routed += len(rest)
        journey = obs_provenance._tracker
        if journey is not None:
            for chunk in rest:
                if chunk.is_data:
                    journey.chunk("demux", chunk, t=now, **self._shard_labels())
        connection.last_activity = now

        received = connection.receiver.receive_chunks(rest)
        self._record_touches(connection)
        if received.connection_closed:
            self.table.mark_closed(connection, now)
            if journey is not None:
                journey.emit(
                    "closed", cid, 0, 0, t=now, level="conn", **self._shard_labels()
                )
        previous = events.per_connection.get(cid)
        if previous is None:
            events.per_connection[cid] = received
        else:
            previous.verdicts.extend(received.verdicts)
            previous.completed_frames.extend(received.completed_frames)
            previous.connection_closed |= received.connection_closed
            previous.chunks.extend(received.chunks)

    def _try_establish(
        self,
        cid: int,
        existing: Connection | None,
        group: list[Chunk],
        now: float,
        events: EndpointEvents,
    ) -> Connection | None:
        """Establish (or attach a receiver session) from *group*.

        A SIGNALING chunk carries the conversation's parameters; DATA
        alone never establishes.
        """
        if cid in self.table.evicted_ids:
            return None
        config: ConnectionConfig | None = None
        for chunk in group:
            if chunk.type is ChunkType.SIGNALING:
                try:
                    config = parse_signaling_chunk(chunk)
                except SignalingError:
                    continue  # the session's strict parser counts it
                break
        if config is None:
            return None
        if existing is not None and existing.state is ConnectionState.CLOSED:
            return None  # a lingering entry only re-ACKs; it attaches nothing new
        # Every receiver session is admitted against the pool — one
        # attached to a locally opened conversation too, or its first
        # placement would register it unasked (or be refused forever).
        full = (
            existing is None
            and self.max_connections is not None
            and len(self.table) >= self.max_connections
        )
        if full or not self.budget.register(cid):
            self.connections_refused += 1
            journey = obs_provenance._tracker
            if journey is not None and full:
                journey.emit(
                    "refused", cid, 0, 0, t=now, level="conn",
                    reason="max_connections", **self._shard_labels(),
                )
            if existing is None:
                self._tombstoned(self.table.evicted_ids.add(cid), now)
            return None
        receiver = ChunkTransportReceiver(
            config=config,
            stream=PlacementBuffer(limit_bytes=None, budget=self.budget, budget_key=cid),
        )
        session = ReliableReceiver(
            transmit=None,
            mtu=self.mtu,
            receiver=receiver,
            transmit_chunks=partial(self.egress.enqueue, self.shard_index or 0),
        )
        if existing is not None:
            existing.receiver = session
            existing.last_activity = now
            return existing
        connection = Connection(
            config=config,
            established_at=now,
            last_activity=now,
            receiver=session,
            _endpoint=self,
        )
        self.table.add(connection)
        events.established.append(cid)
        journey = obs_provenance._tracker
        if journey is not None:
            journey.emit(
                "established", cid, 0, 0, t=now, level="conn", **self._shard_labels()
            )
        return connection

    def _refuse(self, cid: int, chunks: list[Chunk], events: EndpointEvents) -> None:
        events.refused_chunks += len(chunks)
        if cid in self.table.evicted_ids:
            self.refused_evicted += len(chunks)
            reason = "evicted"
        else:
            self.refused_unknown += len(chunks)
            reason = "unknown"
        journey = obs_provenance._tracker
        if journey is not None:
            for chunk in chunks:
                if chunk.is_data:
                    journey.chunk(
                        "refused", chunk, t=self.loop.now, reason=reason,
                        **self._shard_labels(),
                    )

    def _record_touches(self, connection: Connection) -> None:
        """Per-connection touch accounting: fresh stream placements are
        the single NIC→application bus crossing (Figure 1)."""
        assert connection.receiver is not None
        placed = connection.receiver.receiver.stream.bytes_placed
        delta = placed - connection._touched_bytes
        if delta <= 0:
            return
        connection._touched_bytes = placed
        connection.ledger.record("nic-to-app", delta)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def connection(self, cid: int) -> Connection | None:
        return self.table.get(cid)

    def close_connection(self, cid: int) -> None:
        """Locally mark a conversation closed (its state is reclaimed on
        the next sweep after ``close_linger``)."""
        connection = self.table.get(cid)
        if connection is None:
            raise EndpointError(f"no connection {cid} to close")
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        self.table.mark_closed(connection, self.loop.now)
        if before is not None:
            _TALLIES.publish(before, self)

    def sweep(self, now: float | None = None) -> list[int]:
        """Evict idle/lingering connections, reclaiming their state.

        Returns the evicted C.IDs.  Each eviction releases the
        connection's placement reservations back to the shared pool and
        drops its sessions; late chunks for the C.ID are subsequently
        refused (and counted) via the tombstone set.
        """
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        at = self.loop.now if now is None else now
        linger = self.idle_timeout if self.close_linger is None else self.close_linger
        evicted: list[int] = []
        for cid in self.table.idle_connections(at, self.idle_timeout, linger):
            connection = self.table.get(cid)
            reason = (
                "closed"
                if connection is not None
                and connection.state is ConnectionState.CLOSED
                else "idle"
            )
            if self._evict(cid, at, reason):
                evicted.append(cid)
        if before is not None:
            _TALLIES.publish(before, self)
        evicted.extend(self._police_progress(at))
        return evicted

    def _evict(self, cid: int, at: float, reason: str) -> bool:
        evicted = self.table.evict(cid)
        if evicted is None:
            return False
        connection, forgotten = evicted
        if self.on_evict is not None:
            self.on_evict(connection)
        connection.receiver = None
        connection.sender = None
        self.budget.release(cid)
        journey = obs_provenance._tracker
        if journey is not None:
            journey.emit(
                "evicted", cid, 0, 0, t=at, level="conn", reason=reason,
                **self._shard_labels(),
            )
        self._tombstoned(forgotten, at)
        return True

    def _tombstoned(self, forgotten: int | None, at: float) -> None:
        """Record the C.ID whose tombstone the FIFO just *forgot* (its
        late chunks are refused as ``unknown`` from now on)."""
        journey = obs_provenance._tracker
        if journey is not None and forgotten is not None:
            journey.emit(
                "evicted", forgotten, 0, 0, t=at, level="conn",
                reason="tombstone_overflow", dropped=self.table.evicted_ids.dropped,
                **self._shard_labels(),
            )

    def _police_progress(self, at: float) -> list[int]:
        """Evict established receiver conversations that trickled fewer
        than ``min_progress_bytes`` over a whole ``progress_window``.

        Idle-timeout eviction is activity-based, which a slow-loris
        attacker defeats by trickling one tiny chunk per window — each
        touch refreshes ``last_activity`` while the conversation pins a
        fair share of the placement pool forever.  Progress policing is
        *throughput*-based: keep-alives don't count, only payload bytes
        do.
        """
        if self.min_progress_bytes is None:
            return []
        evicted: list[int] = []
        for cid, connection in list(self.table.connections.items()):
            if (
                connection.receiver is None
                or connection.state is not ConnectionState.ESTABLISHED
            ):
                continue
            marked = connection._progress_marked_at
            if marked < 0:
                marked = connection.established_at
                connection._progress_marked_at = marked
            if at - marked < self.progress_window:
                continue
            delta = connection.payload_bytes_in - connection._progress_bytes
            if delta < self.min_progress_bytes:
                # Published per stall, so the flight dump carries it.
                before = _TALLIES.read(self) if obs_runtime._registry is not None else None
                if self._evict(cid, at, "stalled"):
                    self.stalled_evictions += 1
                    evicted.append(cid)
                    if before is not None:
                        _TALLIES.publish(before, self)
                    flight_dump("stalled_eviction", f"conn-{cid}")
            else:
                connection._progress_bytes = connection.payload_bytes_in
                connection._progress_marked_at = at
        return evicted

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """The endpoint's shared-resource and refusal picture, flat."""
        return {
            "active_connections": len(self.table),
            "established_total": self.table.established_total,
            "closed_total": self.table.closed_total,
            "evicted_total": self.table.evicted_total,
            "refused_unknown": self.refused_unknown,
            "refused_evicted": self.refused_evicted,
            "acks_unroutable": self.acks_unroutable,
            "connections_refused": self.connections_refused,
            "stalled_evictions": self.stalled_evictions,
            "tombstones": len(self.table.evicted_ids),
            "tombstones_dropped": self.table.evicted_ids.dropped,
            "packets_received": self.packets_received,
            "decode_failures": self.decode_failures,
            "packets_sent": self.packets_sent,
            "mixed_packets": self.mixed_packets,
            "budget_reserved": self.budget.reserved_total,
            "budget_peak": self.budget.peak_reserved,
            "budget_refusals": self.budget.refusals,
        }
