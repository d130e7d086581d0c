"""Sharded endpoint: C.ID-hashed workers, one pool, one wire.

The label ``(C.ID, offset, length)`` makes every chunk self-describing,
so which worker owns a chunk is a pure function of bytes already in its
header — no shared lookup state, no coordination on the fast path.
:class:`ShardedEndpoint` exploits exactly that: it partitions the
connection table across N :class:`EndpointShard` workers by
:func:`shard_for` (a CRC-32 of the C.ID, deterministic across runs and
interpreters — ``hash()`` would change with ``PYTHONHASHSEED``), each
worker being a full :class:`~repro.transport.endpoint.ChunkEndpoint`
with its own connection table, sessions and timers.

Three shared things remain, each the unsharded mechanism used one
level up:

- **ingress** — :meth:`ShardedEndpoint.receive_packet` decodes each
  wire packet exactly once and hands every shard its chunk group
  through :meth:`~repro.transport.endpoint.ChunkEndpoint.receive_chunks`;
  an Appendix A mixed-C.ID packet simply fans out to several shards;
- **memory** — a :class:`~repro.host.pool.GlobalBudgetPool` lends token
  blocks to per-shard :class:`~repro.host.pool.ShardBudget`\\ s
  (fair-share refusal stays shard-local; eviction returns blocks);
- **egress** — every worker's sessions enqueue into that shard's lane
  of one :class:`~repro.transport.egress.EgressPacker` (the class a
  plain endpoint uses with a single lane), which drains the lanes
  round-robin into MTU-sized envelopes, so packets mixing
  conversations *and shards* are the normal transmit path.

Each shard runs on its own member of a
:class:`~repro.netsim.shardloop.ShardedLoop` — one heap, one clock:
same seed, same global event order, same delivered bytes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

from repro.core.bounded import BoundedSet
from repro.core.chunk import Chunk
from repro.core.errors import CodecError
from repro.core.packet import Packet
from repro.host.pool import GlobalBudgetPool
from repro.netsim.shardloop import ShardedLoop
from repro.obs import counter
from repro.transport.connection import ConnectionConfig
from repro.transport.egress import EgressPacker
from repro.transport.endpoint import (
    ChunkEndpoint,
    Connection,
    ConnectionTable,
    EndpointEvents,
)
from repro.transport.reliability import AdaptiveTpduPolicy

__all__ = ["shard_for", "EndpointShard", "ShardedEndpoint"]

_OBS_FANOUT = counter(
    "transport", "shard.fanout_packets", "ingress packets spanning >1 shard"
)


def shard_for(c_id: int, shards: int) -> int:
    """The worker shard owning conversation *c_id*, in ``[0, shards)``.

    CRC-32 over the C.ID's 4 wire bytes (it is a ``>I`` field), so the
    mapping is total over the 32-bit C.ID space, stable across runs,
    interpreters, and ``PYTHONHASHSEED`` — the same property that lets
    in-network elements partition by label without agreeing on anything
    beyond the header format.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard (shards={shards})")
    return zlib.crc32(c_id.to_bytes(4, "big")) % shards


@dataclass
class EndpointShard:
    """One worker: a shard index and the whole endpoint that serves it.

    Deliberately method-free — every behaviour lives on the wrapped
    :class:`ChunkEndpoint` (per-shard state, changed only by events on
    the shard's member loop) or on the owning :class:`ShardedEndpoint`
    (the composition, on member 0); ``SimSanitizer.watch`` holds that
    boundary at run time.
    """

    index: int
    endpoint: ChunkEndpoint


class ShardedEndpoint:
    """N C.ID-hashed endpoint workers behind one wire and one pool.

    Drop-in for :class:`ChunkEndpoint` at the driver surface
    (``open_connection`` / ``connection`` / ``receive_packet`` /
    ``sweep`` / ``stats``): every conversation-scoped call is forwarded
    to the shard :func:`shard_for` names, so callers never see the
    partition.  Construct it over a :class:`ShardedLoop` — the sharded
    endpoint adds one member loop per shard and leaves member 0 (the
    primary) for the network and the application driver.
    """

    def __init__(
        self,
        loop: ShardedLoop,
        transmit: Callable[[bytes], None] | None = None,
        mtu: int = 1500,
        shards: int = 4,
        pool: GlobalBudgetPool | None = None,
        idle_timeout: float = 30.0,
        close_linger: float | None = None,
        max_connections: int | None = None,
        flush_window: float = 0.0,
        min_progress_bytes: int | None = None,
        progress_window: float = 10.0,
        on_evict: Callable[[Connection], None] | None = None,
        tombstone_capacity: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard (shards={shards})")
        self.loop = loop
        self.transmit = transmit
        self.mtu = mtu
        self.pool = pool if pool is not None else GlobalBudgetPool()
        # Divide the endpoint-wide bounds so N shards never hold more
        # than one endpoint would: tombstone FIFOs and the admission cap
        # both split N ways (rounded up so the totals are never under
        # the single-endpoint figure by more than rounding).
        endpoint_tombstones = (
            tombstone_capacity
            if tombstone_capacity is not None
            else BoundedSet.max_entries
        )
        shard_tombstones = max(1, -(-endpoint_tombstones // shards))
        shard_cap = (
            None if max_connections is None else max(1, -(-max_connections // shards))
        )
        #: one lane per shard; every worker's sessions enqueue here.
        self.egress = EgressPacker(self, loop, flush_window, shards)
        workers: list[EndpointShard] = []
        for index in range(shards):
            endpoint = ChunkEndpoint(
                loop=loop.add_member(),
                transmit=None,
                mtu=mtu,
                budget=self.pool.shard_budget(index, shards),
                table=ConnectionTable(tombstone_capacity=shard_tombstones),
                idle_timeout=idle_timeout,
                close_linger=close_linger,
                max_connections=shard_cap,
                min_progress_bytes=min_progress_bytes,
                progress_window=progress_window,
                on_evict=on_evict,
                shard_index=index,
            )
            endpoint.egress = self.egress
            workers.append(EndpointShard(index=index, endpoint=endpoint))
        self._shards = tuple(workers)
        self.packets_received = 0
        self.decode_failures = 0
        #: ingress packets whose chunks belonged to more than one shard.
        self.fanout_packets = 0

    # -- composition surface -------------------------------------------
    @property
    def shards(self) -> tuple[EndpointShard, ...]:
        return self._shards

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, cid: int) -> int:
        """The shard index owning conversation *cid*."""
        return shard_for(cid, len(self._shards))

    def endpoint_for(self, cid: int) -> ChunkEndpoint:
        """The worker endpoint owning conversation *cid*."""
        return self._shards[self.shard_of(cid)].endpoint

    # -- driver surface (ChunkEndpoint-compatible) ---------------------
    def open_connection(
        self,
        config: ConnectionConfig,
        rto: float = 0.05,
        max_retries: int = 12,
        policy: AdaptiveTpduPolicy | None = None,
    ) -> Connection:
        """Open a locally originated conversation on its owning shard."""
        return self.endpoint_for(config.connection_id).open_connection(
            config, rto=rto, max_retries=max_retries, policy=policy
        )

    def connection(self, cid: int) -> Connection | None:
        return self.endpoint_for(cid).connection(cid)

    def close_connection(self, cid: int) -> None:
        self.endpoint_for(cid).close_connection(cid)

    def receive_packet(self, frame: bytes) -> EndpointEvents:
        """Decode *frame* once and dispatch its chunks to owning shards.

        Label-driven demux (Section 2) applied one level up: only chunk
        headers are read and no per-connection state is kept.  The
        per-connection event dictionaries are disjoint across shards by
        construction, so merging is a plain union.
        """
        self.packets_received += 1
        try:
            packet = Packet.decode(frame)
        except CodecError:
            self.decode_failures += 1
            return EndpointEvents(decode_failed=True)
        count = len(self._shards)
        groups: dict[int, list[Chunk]] = {}
        for chunk in packet.chunks:
            groups.setdefault(shard_for(chunk.c_id, count), []).append(chunk)
        if len(groups) > 1:
            self.fanout_packets += 1
            _OBS_FANOUT.inc()
        merged = EndpointEvents()
        for index in sorted(groups):
            events = self._shards[index].endpoint.receive_chunks(groups[index])
            merged.per_connection.update(events.per_connection)
            merged.established.extend(events.established)
            merged.refused_chunks += events.refused_chunks
        return merged

    def sweep(self, now: float | None = None) -> list[int]:
        """Run every shard's eviction sweep; returns all evicted C.IDs."""
        evicted: list[int] = []
        for shard in self._shards:
            evicted.extend(shard.endpoint.sweep(now))
        return evicted

    # -- cross-shard egress --------------------------------------------
    def flush(self) -> None:
        """Force pending cross-shard egress onto the wire immediately."""
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

    @property
    def cross_shard_packets(self) -> int:
        """Egress packets whose chunks came from more than one shard."""
        return self.egress.cross_shard_packets

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Endpoint-wide totals: shard sums plus ingress/packer/pool."""
        totals: dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.endpoint.stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["packets_received"] = self.packets_received
        totals["decode_failures"] = self.decode_failures
        totals["fanout_packets"] = self.fanout_packets
        totals["packets_sent"] = self.packets_sent
        totals["mixed_packets"] = self.mixed_packets
        totals["cross_shard_packets"] = self.cross_shard_packets
        totals["pool_lent"] = self.pool.lent_total
        totals["pool_peak_lent"] = self.pool.peak_lent
        totals["pool_refusals"] = self.pool.refusals
        return totals
