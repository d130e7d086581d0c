"""Unit tests for the sharded endpoint composition.

End-to-end equivalence with the unsharded endpoint lives in
``tests/properties/test_shard_equivalence.py`` and the scale acceptance
in ``tests/integration/test_sharded_scale.py``; this file pins the
composition mechanics — ownership routing, ingress fan-out, the
round-robin cross-shard packer, bound division, and reclamation.
"""

from __future__ import annotations

import pytest

from repro.core.bounded import BoundedSet
from repro.core.errors import EndpointError
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.shard import ShardedEndpoint, shard_for

MTU = 600


def make_pair(shards: int = 4, **kwargs):
    """A sharded endpoint pair wired back-to-back (lossless, no delay)."""
    loop = ShardedLoop()
    sender = ShardedEndpoint(loop, mtu=MTU, shards=shards, **kwargs)
    receiver = ShardedEndpoint(loop, mtu=MTU, shards=shards, **kwargs)
    sender.transmit = receiver.receive_packet
    receiver.transmit = sender.receive_packet
    return loop, sender, receiver


def payload_for(cid: int, nbytes: int = 256) -> bytes:
    return bytes((cid * 13 + i) % 256 for i in range(nbytes))


class TestShardFor:
    def test_rejects_empty_shard_sets(self):
        for shards in (0, -1):
            with pytest.raises(ValueError):
                shard_for(7, shards)

    def test_endpoint_rejects_empty_shard_sets(self):
        with pytest.raises(ValueError):
            ShardedEndpoint(ShardedLoop(), shards=0)


class TestOwnershipRouting:
    def test_open_connection_lands_on_the_owning_shard(self):
        loop, sender, _ = make_pair(shards=4)
        for cid in (1, 2, 3, 1000):
            sender.open_connection(ConnectionConfig(connection_id=cid))
        for cid in (1, 2, 3, 1000):
            owner = sender.shard_of(cid)
            assert owner == shard_for(cid, 4)
            for shard in sender.shards:
                present = shard.endpoint.connection(cid) is not None
                assert present == (shard.index == owner)
            assert sender.connection(cid) is not None
        assert sender.connection(424242) is None

    def test_adding_a_shard_adds_a_member_loop(self):
        loop = ShardedLoop()
        assert len(loop.members) == 1
        ShardedEndpoint(loop, shards=4)
        # member 0 (primary) + one per shard
        assert len(loop.members) == 5

    def test_garbage_frame_is_a_counted_decode_failure(self):
        _, _, receiver = make_pair(shards=2)
        events = receiver.receive_packet(b"\x00\x01not a packet")
        assert events.decode_failed
        assert receiver.decode_failures == 1
        assert receiver.stats()["decode_failures"] == 1


class TestBoundDivision:
    def test_tombstone_capacity_divides_across_shards(self):
        loop = ShardedLoop()
        endpoint = ShardedEndpoint(loop, shards=8, tombstone_capacity=100)
        caps = [
            shard.endpoint.table.evicted_ids.max_entries
            for shard in endpoint.shards
        ]
        assert caps == [13] * 8  # ceil(100 / 8)
        # Total shard tombstone memory stays within rounding of the
        # endpoint-wide bound.
        assert sum(caps) <= 100 + 8

    def test_default_tombstone_bound_also_divides(self):
        loop = ShardedLoop()
        endpoint = ShardedEndpoint(loop, shards=4)
        expected = -(-BoundedSet.max_entries // 4)
        for shard in endpoint.shards:
            assert shard.endpoint.table.evicted_ids.max_entries == expected

    def test_max_connections_divides_across_shards(self):
        loop = ShardedLoop()
        endpoint = ShardedEndpoint(loop, shards=4, max_connections=10)
        for shard in endpoint.shards:
            assert shard.endpoint.max_connections == 3  # ceil(10 / 4)


class TestRoundRobinPacker:
    def test_drain_keeps_each_lane_whole_and_rotates(self):
        packer = ShardedEndpoint(ShardedLoop(), shards=3).egress
        # The drain never inspects the queued objects, so sentinels do:
        # each lane's chunks stay together in enqueue order (so a final
        # DATA chunk and its ED chunk stay adjacent), empty lanes add
        # nothing, and the next flush starts one lane further on.
        packer.enqueue(0, ["a1", "a2"])
        packer.enqueue(2, ["c1", "c2"])
        packer.enqueue(0, ["a3"])
        packer.enqueue(1, ["b1"])
        assert packer._drain() == ["a1", "a2", "a3", "b1", "c1", "c2"]
        assert packer._drain() == []
        packer.enqueue(0, ["a1"])
        packer.enqueue(2, ["c1", "c2"])
        assert packer._drain() == ["c1", "c2", "a1"]  # starts at lane 2; lane 1 is empty
        packer.enqueue(1, ["b1", "b2"])
        packer.enqueue(0, ["a1"])
        assert packer._drain() == ["a1", "b1", "b2"]  # back to lane 0

    def test_starting_shard_rotates_between_flushes(self):
        packer = ShardedEndpoint(ShardedLoop(), shards=3).egress
        packer.enqueue(0, ["a"])
        packer.enqueue(1, ["b"])
        assert packer._drain() == ["a", "b"]
        packer.enqueue(0, ["a"])
        packer.enqueue(1, ["b"])
        # Second flush starts at shard 1.
        assert packer._drain() == ["b", "a"]

    def test_one_lane_is_plain_fifo(self):
        # The unsharded endpoint's packer: whatever the sessions
        # enqueued, in that order, flush after flush.
        packer = ChunkEndpoint(EventLoop()).egress
        packer.enqueue(0, ["a1", "a2"])
        packer.enqueue(0, ["b1"])
        packer.enqueue(0, ["a3"])
        assert packer._drain() == ["a1", "a2", "b1", "a3"]
        packer.enqueue(0, ["c1", "c2"])
        assert packer._drain() == ["c1", "c2"]

    def test_every_worker_enqueues_into_the_one_shared_packer(self):
        endpoint = ShardedEndpoint(ShardedLoop(), shards=3)
        assert all(shard.endpoint.egress is endpoint.egress for shard in endpoint.shards)

    def test_flush_without_transmit_is_an_error(self):
        loop, sender, _ = make_pair(shards=2)
        sender.transmit = None
        connection = sender.open_connection(ConnectionConfig(connection_id=1))
        connection.send_frame(payload_for(1), end_of_connection=True)
        with pytest.raises(EndpointError):
            loop.run()


class TestEndToEnd:
    def test_cross_shard_egress_and_ingress_fanout(self):
        # C.IDs 1..4 span three shards at shards=4 ({2, 0, 2, 1}), so
        # concurrent sends must produce mixed envelopes on egress and
        # fan-out on ingress.
        loop, sender, receiver = make_pair(shards=4)
        cids = (1, 2, 3, 4)
        for cid in cids:
            connection = sender.open_connection(ConnectionConfig(connection_id=cid))
            connection.send_frame(payload_for(cid), end_of_connection=True)
        loop.run()
        for cid in cids:
            received = receiver.connection(cid)
            assert received is not None
            assert received.stream_bytes()[:256] == payload_for(cid)
        stats = sender.stats()
        assert stats["cross_shard_packets"] > 0
        assert stats["mixed_packets"] >= stats["cross_shard_packets"]
        assert receiver.fanout_packets > 0
        assert receiver.stats()["fanout_packets"] == receiver.fanout_packets

    def test_sweep_covers_every_shard_and_reclaims_the_pool(self):
        loop, sender, receiver = make_pair(shards=4)
        cids = (1, 2, 3, 4)
        for cid in cids:
            connection = sender.open_connection(ConnectionConfig(connection_id=cid))
            connection.send_frame(payload_for(cid), end_of_connection=True)
        loop.run()
        assert receiver.pool.lent_total > 0
        evicted = receiver.sweep(now=loop.now + 3600.0)
        assert set(evicted) == set(cids)
        assert receiver.pool.lent_total == 0
        sender.sweep(now=loop.now + 3600.0)
        assert sender.pool.lent_total == 0

    def test_stats_surface_router_packer_and_pool_totals(self):
        loop, sender, receiver = make_pair(shards=2)
        connection = sender.open_connection(ConnectionConfig(connection_id=1))
        connection.send_frame(payload_for(1), end_of_connection=True)
        loop.run()
        for stats in (sender.stats(), receiver.stats()):
            for key in (
                "packets_received", "decode_failures", "fanout_packets",
                "packets_sent", "mixed_packets", "cross_shard_packets",
                "pool_lent", "pool_peak_lent", "pool_refusals",
            ):
                assert key in stats
        assert sender.stats()["packets_sent"] > 0
        # Placement borrowing happens on the receiving side.
        assert receiver.stats()["pool_peak_lent"] > 0
