"""Egress: chunks in, MTU-sized envelopes out — written once.

Chunks are self-describing, so putting them on the wire is one
operation wherever it happens: pack what is waiting into envelopes
(Appendix A — a packet may carry chunks of several conversations),
encode, count, transmit.  :class:`EgressPacker` is that operation.

An endpoint's sessions :meth:`~EgressPacker.enqueue` chunks into a
*lane* and a flush one ``flush_window`` later drains every lane — one
chunk per non-empty lane per cycle, the starting lane rotating between
flushes so none is structurally first in every envelope.  A plain
:class:`~repro.transport.endpoint.ChunkEndpoint` has one lane, which is
FIFO; a :class:`~repro.transport.shard.ShardedEndpoint` has one lane
per worker shard, so envelopes mixing conversations *and shards* are
the normal transmit path.  A session with no endpoint in front of it
skips the lanes and calls :meth:`~EgressPacker.ship` directly.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Protocol

from repro.core.chunk import Chunk
from repro.core.errors import EndpointError
from repro.core.packet import pack_chunks
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.obs import counter, journey_handle

__all__ = ["Wire", "EgressPacker"]

_OBS_PACKETS_SENT = counter("transport", "endpoint.packets_sent", "egress packets packed")
_OBS_MIXED_PACKETS = counter(
    "transport", "endpoint.mixed_packets", "egress packets mixing >1 conversation"
)
_OBS_CROSS_SHARD = counter(
    "transport", "shard.cross_shard_packets", "egress packets mixing >1 shard"
)
_OBS_JOURNEY = journey_handle()


class Wire(Protocol):
    """What a packer reads off its owner each time it ships — drivers
    rewire ``transmit`` on a live endpoint, so neither is copied."""

    transmit: Callable[[bytes], None] | None
    mtu: int


class EgressPacker:
    """The lanes of one wire, and the only code that fills its packets.

    *shards* is the owning endpoint's shard count: it fixes the number
    of lanes (lane ``i`` is shard ``i``'s) and labels journey records
    with the shard a chunk came from.  ``None`` is the unsharded wire:
    one lane, no label.
    """

    def __init__(
        self,
        wire: Wire,
        loop: EventLoop | ShardedLoop | None = None,
        flush_window: float = 0.0,
        shards: int | None = None,
    ) -> None:
        self.wire = wire
        self.loop = loop
        self.flush_window = flush_window
        self._sharded = shards is not None
        self._lanes: list[list[Chunk]] = [[] for _ in range(shards or 1)]
        self._first_lane = 0
        self._flush_scheduled = False
        self.bytes_sent = 0
        self.packets_sent = 0
        self.mixed_packets = 0
        #: packets whose chunks came from more than one lane.
        self.cross_shard_packets = 0

    def enqueue(self, lane: int, chunks: list[Chunk]) -> None:
        """Egress seam for sessions: collect chunks, flush as packets.

        Chunks enqueued by different conversations inside one flush
        window share envelopes — multi-connection packets are the
        normal case here, not a special mode.
        """
        self._lanes[lane].extend(chunks)
        if not self._flush_scheduled:
            if self.loop is None:
                raise EndpointError("egress lanes need an event loop to flush on")
            self._flush_scheduled = True
            self.loop.schedule(self.flush_window, self.flush)

    def flush(self) -> None:
        """Put every waiting chunk on the wire now."""
        self._flush_scheduled = False
        shard_of = None
        if self._sharded:
            shard_of = {
                chunk.c_id: lane
                for lane, queue in enumerate(self._lanes)
                for chunk in queue
            }
        chunks = self._drain()
        if chunks:
            # ``endpoint.*`` series count an endpoint's flushes only; a
            # lone session's direct :meth:`ship` is not an endpoint.
            _OBS_PACKETS_SENT.inc(self.ship(chunks, shard_of))

    def _drain(self) -> list[Chunk]:
        count = len(self._lanes)
        lanes = [self._lanes[(self._first_lane + offset) % count] for offset in range(count)]
        self._first_lane = (self._first_lane + 1) % count
        drained = [
            chunk
            for cycle in zip_longest(*lanes)
            for chunk in cycle
            if chunk is not None
        ]
        for lane in lanes:
            lane.clear()
        return drained

    def ship(self, chunks: list[Chunk], shard_of: dict[int, int] | None = None) -> int:
        """Pack, encode, count and transmit *chunks*; returns the packet count."""
        transmit = self.wire.transmit
        if transmit is None:
            raise EndpointError("egress needs a transmit callback")
        now = None if self.loop is None else self.loop.now
        packets = pack_chunks(chunks, self.wire.mtu)
        for packet in packets:
            conversations = {chunk.c_id for chunk in packet.chunks}
            if len(conversations) > 1:
                self.mixed_packets += 1
                _OBS_MIXED_PACKETS.inc()
                if shard_of and len({shard_of[cid] for cid in conversations}) > 1:
                    self.cross_shard_packets += 1
                    _OBS_CROSS_SHARD.inc()
            if _OBS_JOURNEY:
                for chunk in packet.chunks:
                    if chunk.is_data:
                        _OBS_JOURNEY.chunk(
                            "packed", chunk, t=now,
                            shard=shard_of[chunk.c_id] if shard_of else None,
                        )
            encoded = packet.encode()
            self.bytes_sent += len(encoded)
            self.packets_sent += 1
            transmit(encoded)
        return len(packets)
