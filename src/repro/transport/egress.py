"""Egress: chunks in, MTU-sized envelopes out — written once.

Chunks are self-describing, so putting them on the wire is one
operation wherever it happens: pack what is waiting into envelopes
(Appendix A — a packet may carry chunks of several conversations),
encode, count, transmit.  :class:`EgressPacker` is that operation.

An endpoint's sessions :meth:`~EgressPacker.enqueue` chunks into a
*lane* and a flush one ``flush_window`` later drains every lane whole,
in enqueue order — a TPDU's final DATA chunk and its header-less ED
chunk stay adjacent (Appendix A) — the starting lane rotating between
flushes so none is structurally first in every envelope.  A plain
:class:`~repro.transport.endpoint.ChunkEndpoint` has one lane, which is
FIFO; a :class:`~repro.transport.shard.ShardedEndpoint` has one lane
per worker shard, so envelopes mixing conversations *and shards* are
the normal transmit path.  A session with no endpoint in front of it
skips the lanes and calls :meth:`~EgressPacker.ship` directly.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Protocol

from repro.core.chunk import Chunk
from repro.core.errors import EndpointError
from repro.core.packet import pack_chunks
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.obs import Tallies
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime

__all__ = ["Wire", "EgressPacker"]

_C_ID = itemgetter(3)

_TALLIES = Tallies({
    "flushed_packets": ("transport", "endpoint.packets_sent", "egress packets packed"),
    "mixed_packets": (
        "transport", "endpoint.mixed_packets", "egress packets mixing >1 conversation"
    ),
    "cross_shard_packets": (
        "transport", "shard.cross_shard_packets", "egress packets mixing >1 shard"
    ),
})


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
        #: lane ``i``'s enqueue, one callable shared by every session of shard ``i``.
        self.enqueue_on = tuple([partial(self.enqueue, lane) for lane in range(len(self._lanes))])
        self._first_lane = 0
        self._flush_scheduled = False
        self.bytes_sent = 0
        self.packets_sent = 0
        #: packets shipped by :meth:`flush` — an endpoint's, where a lone
        #: session's direct :meth:`ship` is not an endpoint's.
        self.flushed_packets = 0
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
        lanes = self._lanes  # read for a lane label only where one is needed
        chunks = self._drain()
        if chunks:
            self.ship(chunks, lanes if self._sharded else [])

    def _drain(self) -> list[Chunk]:
        """Every waiting chunk, each lane's together in enqueue order (a final
        DATA chunk and its ED chunk stay adjacent), the start rotating."""
        lanes, first = self._lanes, self._first_lane
        if len(lanes) == 1:  # one lane is FIFO
            self._lanes = [[]]
            return lanes[0]
        self._lanes = [[] for _ in lanes]
        self._first_lane = (first + 1) % len(lanes)
        return list(chain.from_iterable(lanes[first:] + lanes[:first]))

    def ship(self, chunks: list[Chunk], lanes: list[list[Chunk]] | None = None) -> int:
        """Pack, encode, count and transmit *chunks*; returns the packet count.

        *lanes* are what :meth:`flush` drained (none on the unsharded wire);
        only flush passes them, so its packets count as flushed.
        """
        transmit = self.wire.transmit
        if transmit is None:
            raise EndpointError("egress needs a transmit callback")
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        journey = obs_provenance._tracker
        packets = pack_chunks(chunks, self.wire.mtu)
        shard_of: dict[int, int] = {}  # C.ID -> lane, filled where first read
        for packet in packets:
            carried = packet.chunks
            mixed = len(set(map(_C_ID, carried))) > 1
            if (mixed or journey is not None) and lanes and not shard_of:
                for lane, queue in enumerate(lanes):
                    for chunk in queue:
                        shard_of[chunk[3]] = lane
            if mixed:
                self.mixed_packets += 1
                # Lanes drain contiguously, so a packet spans lanes iff its ends do.
                if shard_of and shard_of[carried[0][3]] != shard_of[carried[-1][3]]:
                    self.cross_shard_packets += 1
            if journey is not None:
                now = None if self.loop is None else self.loop.now
                for chunk in carried:
                    if chunk.is_data:
                        journey.chunk(
                            "packed", chunk, t=now,
                            shard=shard_of[chunk.c_id] if shard_of else None,
                        )
            encoded = packet.encode()
            self.bytes_sent += len(encoded)
            self.packets_sent += 1
            transmit(encoded)
        if lanes is not None:
            self.flushed_packets += len(packets)
        if before is not None:
            _TALLIES.publish(before, self)
        return len(packets)
