"""Acceptance: 1,000 conversations across 8 C.ID-hashed worker shards.

The sharded endpoint's whole claim is that partitioning by the label
changes *capacity*, not *behaviour*: the same wire, the same delivered
bytes, the same reclamation guarantees — just N workers instead of one.
This suite drives 1,000 staggered bulk/video conversations between two
8-shard :class:`~repro.transport.shard.ShardedEndpoint`\\ s through one
shared lossy bottleneck and checks the acceptance contract at once:
byte-identical delivery for every conversation, Jain fairness ≥ 0.9
over both delivered bytes and the hash partition itself, the global
budget pool fully reclaimed once eviction runs, and a same-seed
unsharded run delivering bit-for-bit the same streams.
"""

from __future__ import annotations

import pytest

from repro.app.concurrent import ConcurrentWorkload, deterministic_payload, staggered_specs
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import HopSpec
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.shard import ShardedEndpoint

CONVERSATIONS = 1000
SHARDS = 8
OBJECT_BYTES = 1024
LOSS = 0.01
SEED = 47
# Batch egress across a couple of stagger slots so envelopes genuinely
# mix conversations (and shards) instead of flushing one send at a time.
FLUSH_WINDOW = 0.001


def jain(values: list[int]) -> float:
    """Jain's fairness index: 1.0 when every share is equal."""
    if not values or not any(values):
        return 0.0
    return sum(values) ** 2 / (len(values) * sum(v * v for v in values))


def run_scale(shards: int | None):
    """Drive the full workload; returns (loop, sender, receiver, outcomes)."""
    if shards is None:
        loop: EventLoop | ShardedLoop = EventLoop()
        netloop = loop
        sender: ChunkEndpoint | ShardedEndpoint = ChunkEndpoint(
            loop, mtu=1500, idle_timeout=5.0, flush_window=FLUSH_WINDOW
        )
        receiver: ChunkEndpoint | ShardedEndpoint = ChunkEndpoint(
            loop, mtu=1500, idle_timeout=5.0, flush_window=FLUSH_WINDOW
        )
    else:
        loop = ShardedLoop()
        netloop = loop.member(0)
        sender = ShardedEndpoint(
            loop, mtu=1500, shards=shards, idle_timeout=5.0,
            flush_window=FLUSH_WINDOW,
        )
        receiver = ShardedEndpoint(
            loop, mtu=1500, shards=shards, idle_timeout=5.0,
            flush_window=FLUSH_WINDOW,
        )
    net = build_shared_bottleneck(
        netloop,
        pairs=[(receiver.receive_packet, sender.receive_packet)],
        bottleneck=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005, loss_rate=LOSS),
        reverse=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005),
        seed=SEED,
    )
    sender.transmit = net.ports[0].send
    receiver.transmit = net.ports[0].send_reverse
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(
        staggered_specs(CONVERSATIONS, total_bytes=OBJECT_BYTES, stagger=0.0005)
    )
    outcomes = work.run()
    if shards is not None:
        # The global pool's books: what it says it lent is what each
        # shard's budget holds beyond its own (empty) backing.
        for endpoint in (sender, receiver):
            pool, workers = endpoint.pool, endpoint.shards
            assert pool.lent_total == sum(pool.lent_to(w.index) for w in workers) \
                == sum(w.endpoint.budget.pool_bytes for w in workers)
    return loop, sender, receiver, outcomes


def delivered_streams(receiver) -> dict[int, bytes]:
    streams: dict[int, bytes] = {}
    for cid in range(1, CONVERSATIONS + 1):
        conn = receiver.connection(cid)
        streams[cid] = b"" if conn is None else conn.stream_bytes()[:OBJECT_BYTES]
    return streams


@pytest.fixture(scope="module")
def sharded_run():
    """One 1,000-conversation 8-shard run shared by the per-property tests."""
    return run_scale(SHARDS)


@pytest.mark.slow
def test_every_stream_is_byte_identical(sharded_run):
    _, _, receiver, outcomes = sharded_run
    assert len(outcomes) == CONVERSATIONS
    assert all(o.launched for o in outcomes)
    incomplete = [o.spec.connection_id for o in outcomes if not o.complete]
    assert incomplete == []
    for cid in (1, CONVERSATIONS // 2, CONVERSATIONS):
        conn = receiver.connection(cid)
        assert conn is not None
        assert conn.stream_bytes() == deterministic_payload(cid, OBJECT_BYTES)


@pytest.mark.slow
def test_jain_fairness_of_delivery_and_partition(sharded_run):
    _, _, receiver, outcomes = sharded_run
    # Fairness of outcome: every conversation's delivered bytes.
    assert jain([o.bytes_received for o in outcomes]) >= 0.9
    # Fairness of the partition itself: CRC-32 spreads the 1,000 C.IDs
    # near-uniformly, so no shard becomes a hot spot.
    per_shard = [
        len(shard.endpoint.table.connections) for shard in receiver.shards
    ]
    assert sum(per_shard) == CONVERSATIONS
    assert jain(per_shard) >= 0.9


@pytest.mark.slow
def test_conversations_crossed_shards_on_one_wire(sharded_run):
    _, sender, receiver, _ = sharded_run
    # The run must exercise the cross-shard packer and the ingress
    # fan-out, not degenerate into eight isolated endpoints.
    assert sender.mixed_packets > 0
    assert sender.cross_shard_packets > 0
    assert receiver.fanout_packets > 0
    stats = receiver.stats()
    assert stats["established_total"] == CONVERSATIONS
    assert stats["active_connections"] == CONVERSATIONS


@pytest.mark.slow
def test_same_seed_sharded_and_unsharded_deliver_identically(sharded_run):
    _, _, receiver, _ = sharded_run
    _, _, base_receiver, base_outcomes = run_scale(None)
    assert all(o.complete for o in base_outcomes)
    assert delivered_streams(receiver) == delivered_streams(base_receiver)


@pytest.mark.slow
def test_eviction_returns_every_borrowed_block(sharded_run):
    # Runs last in the module: it evicts the shared run's connections.
    loop, sender, receiver, _ = sharded_run
    pool = receiver.pool
    assert pool.lent_total > 0
    assert pool.peak_lent > 0
    evicted = receiver.sweep(now=loop.now + 6.0)
    assert sorted(evicted) == list(range(1, CONVERSATIONS + 1))
    # Every shard budget drained and every borrowed block went home.
    for shard in receiver.shards:
        assert shard.endpoint.budget.reserved_total == 0
        assert len(shard.endpoint.table.connections) == 0
    assert pool.lent_total == 0
    sender.sweep(now=loop.now + 6.0)
    assert sender.pool.lent_total == 0
