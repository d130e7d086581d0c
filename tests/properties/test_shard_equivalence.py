"""Property suite: sharding never changes what gets delivered.

The sharded endpoint is a pure repartition of the unsharded one — the
label ``(C.ID, offset, length)`` decides the owning shard, and every
chunk is processed by exactly one worker.  So for *any* seeded
workload, the sharded endpoint (N ∈ {1, 2, 4, 8}) must deliver
byte-identical per-connection streams and identical per-connection
touch totals to the unsharded endpoint.  The wire differs (packet
framing, loss draws, retransmission schedules are all allowed to
change), but the delivered conversation cannot — that is the whole
equivalence claim of the refactor.

Also pinned here: :func:`~repro.transport.shard.shard_for` is total
over the 32-bit C.ID space and stable across runs (golden values), so
a persisted trace labelled with shard indices stays meaningful.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.concurrent import ConcurrentWorkload, staggered_specs
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import HopSpec
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.shard import ShardedEndpoint, shard_for

MTU = 600


def run_workload(
    shards: int | None,
    count: int,
    total_bytes: int,
    loss_rate: float,
    seed: int,
) -> dict[int, tuple[bytes, int]]:
    """Drive one endpoint pair to quiescence; returns per-connection
    ``(delivered stream, touched bytes)`` keyed by C.ID.

    ``shards=None`` builds the plain unsharded pair; an integer builds
    the sharded composition over a lockstep :class:`ShardedLoop`.
    """
    if shards is None:
        loop: EventLoop | ShardedLoop = EventLoop()
        netloop = loop
        sender: ChunkEndpoint | ShardedEndpoint = ChunkEndpoint(loop, mtu=MTU)
        receiver: ChunkEndpoint | ShardedEndpoint = ChunkEndpoint(loop, mtu=MTU)
    else:
        loop = ShardedLoop()
        netloop = loop.member(0)
        sender = ShardedEndpoint(loop, mtu=MTU, shards=shards)
        receiver = ShardedEndpoint(loop, mtu=MTU, shards=shards)
    topology = build_shared_bottleneck(
        netloop,
        pairs=[(receiver.receive_packet, sender.receive_packet)],
        bottleneck=HopSpec(mtu=MTU, rate_bps=100e6, delay=0.001, loss_rate=loss_rate),
        seed=seed,
    )
    sender.transmit = topology.ports[0].send
    receiver.transmit = topology.ports[0].send_reverse
    workload = ConcurrentWorkload(loop=loop, sender=sender, receiver=receiver)
    workload.launch(staggered_specs(count, total_bytes=total_bytes))
    workload.run()
    if shards is not None:
        # The global pool's books: what it says it lent is what each
        # shard's budget holds beyond its own (empty) backing.
        for endpoint in (sender, receiver):
            pool, workers = endpoint.pool, endpoint.shards
            assert pool.lent_total == sum(pool.lent_to(w.index) for w in workers) \
                == sum(w.endpoint.budget.pool_bytes for w in workers)
    delivered: dict[int, tuple[bytes, int]] = {}
    for spec in workload.specs:
        connection = receiver.connection(spec.connection_id)
        if connection is None:
            delivered[spec.connection_id] = (b"", 0)
        else:
            delivered[spec.connection_id] = (
                connection.stream_bytes()[: spec.total_bytes],
                connection._touched_bytes,
            )
    return delivered


class TestShardedEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        shards=st.sampled_from([1, 2, 4, 8]),
        count=st.integers(min_value=2, max_value=5),
        # Whole 4-byte atomic units (the chunk builder refuses ragged
        # frames), in a range small enough to run two sims per example.
        total_bytes=st.sampled_from([256, 512, 768]),
        loss_rate=st.sampled_from([0.0, 0.02]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sharded_delivers_identical_streams_and_touches(
        self, shards, count, total_bytes, loss_rate, seed
    ):
        base = run_workload(None, count, total_bytes, loss_rate, seed)
        sharded = run_workload(shards, count, total_bytes, loss_rate, seed)
        assert sharded == base
        # Sanity: the workload actually delivered something non-trivial.
        assert all(stream for stream, _ in base.values())


class TestShardFor:
    @given(
        c_id=st.integers(min_value=0, max_value=2**32 - 1),
        shards=st.integers(min_value=1, max_value=64),
    )
    def test_total_over_the_cid_space(self, c_id, shards):
        index = shard_for(c_id, shards)
        assert 0 <= index < shards
        # Deterministic: the same label always lands on the same shard.
        assert shard_for(c_id, shards) == index

    def test_single_shard_owns_everything(self):
        for c_id in (0, 1, 7, 2**31, 2**32 - 1):
            assert shard_for(c_id, 1) == 0

    def test_golden_values_are_stable_across_runs(self):
        # CRC-32 of the 4 wire bytes — pinned so persisted shard labels
        # (traces, flight dumps) stay meaningful across interpreter
        # versions and PYTHONHASHSEED values.
        assert [shard_for(cid, 8) for cid in range(12)] == [
            4, 2, 0, 6, 5, 3, 1, 7, 6, 0, 2, 4,
        ]
        assert [shard_for(cid, 4) for cid in (1, 2, 3, 1000, 65535)] == [
            2, 0, 2, 1, 3,
        ]
