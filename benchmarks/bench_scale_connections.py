"""SCALE-CONN: one endpoint, hundreds of conversations (Appendix A).

The paper's C.ID "is intended to refer to a single, unmultiplexed
application-to-application conversation", and Appendix A lets packets
"carry chunks from multiple connections" — so the real unit of host
performance is the *multiplexed endpoint*: one connection table, one
event loop, one shared placement pool, N conversations.

Reproduction: drive 16 -> 256 staggered bulk/video conversations
between one sender ``ChunkEndpoint`` and one receiver ``ChunkEndpoint``
over a shared lossy bottleneck and report, per tier: delivery
completeness, simulated completion time, aggregate goodput, Jain
fairness over per-connection service (chunks routed), peak bytes drawn
from the shared placement pool, and the state reclaimed by idle
eviction.  A separate fairness scenario pits one over-claiming "hog"
conversation against well-behaved peers on a small pool: the budget
must refuse the hog (visibly — its TPDUs stay unacknowledged and its
sender gives up) while every peer completes untouched.

Shape: completeness and the 1.0-touch/byte budget hold at every tier;
per-conversation cost does not grow with N (the connection table is
O(1) per chunk); the hog never stalls nor starves its peers.
"""

from __future__ import annotations

import tracemalloc

from _common import print_table, register_bench, scaled
from repro.app.concurrent import (
    ConcurrentWorkload,
    deterministic_payload,
    staggered_specs,
)
from repro.host.budget import SharedPlacementBudget
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import HopSpec
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.shard import ShardedEndpoint

CONN_TIERS = (16, 64, 256)
OBJECT_BYTES = 4096
LOSS = 0.01
STAGGER = 0.0005

#: The sharded sweep: tiers one endpoint cannot reasonably hold, run on
#: 8 C.ID-hashed worker shards with smaller objects (the point is state
#: scale — tables, budgets, tombstones — not per-conversation volume).
SHARDED_TIERS = (1000, 10000)
SHARDED_SHARDS = 8
SHARDED_OBJECT_BYTES = 1024
#: Batch cross-shard egress over a couple of stagger slots so envelopes
#: genuinely mix shards (flushing each send alone would hide the packer).
SHARD_FLUSH_WINDOW = 0.001


def jain_fairness(shares: list[int]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal service."""
    if not shares or not any(shares):
        return 0.0
    total = sum(shares)
    return total * total / (len(shares) * sum(s * s for s in shares))


def _endpoint_pair(
    loop: EventLoop, loss: float, seed: int, budget: SharedPlacementBudget | None = None
) -> tuple[ChunkEndpoint, ChunkEndpoint]:
    sender = ChunkEndpoint(loop, mtu=1500, idle_timeout=5.0)
    receiver = ChunkEndpoint(loop, mtu=1500, idle_timeout=5.0)
    if budget is not None:
        receiver.budget = budget
    net = build_shared_bottleneck(
        loop,
        pairs=[(receiver.receive_packet, sender.receive_packet)],
        bottleneck=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005, loss_rate=loss),
        reverse=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005),
        seed=seed,
    )
    port = net.ports[0]
    sender.transmit = port.send
    receiver.transmit = port.send_reverse
    return sender, receiver


def run_tier(conversations: int, object_bytes: int = OBJECT_BYTES, seed: int = 17) -> dict:
    """One tier of the scale sweep; returns its deterministic figures."""
    loop = EventLoop()
    sender, receiver = _endpoint_pair(loop, LOSS, seed + conversations)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(conversations, total_bytes=object_bytes, stagger=STAGGER))
    outcomes = work.run()
    complete = sum(1 for o in outcomes if o.complete)
    touches_ok = sum(1 for o in outcomes if abs(o.touches_per_byte - 1.0) < 1e-9)
    shares = [c.chunks_in for c in receiver.table.connections.values()]
    payload_total = complete * object_bytes
    sim_time = loop.now
    # Idle eviction: everything is closed and quiescent, so a sweep past
    # the idle timeout must reclaim the whole table and pool.
    loop.at(sim_time + receiver.idle_timeout + 1.0, lambda: None)
    loop.run()
    evicted = len(receiver.sweep())
    return {
        "conversations": conversations,
        "complete": complete,
        "touches_ok": touches_ok,
        "sim_time": round(sim_time, 6),
        "goodput_mbps": round(payload_total * 8 / sim_time / 1e6, 3),
        "fairness": round(jain_fairness(shares), 4),
        "peak_pool_bytes": receiver.budget.peak_reserved,
        "mixed_packets": sender.mixed_packets,
        "evicted": evicted,
        "pool_after_sweep": receiver.budget.reserved_total,
    }


def run_sharded_tier(
    conversations: int,
    shards: int = SHARDED_SHARDS,
    object_bytes: int = SHARDED_OBJECT_BYTES,
    seed: int = 29,
    measure_alloc: bool = False,
) -> dict:
    """One sharded tier; figures are deterministic except the optional
    ``tracemalloc_peak_kib``, which is printed-only and never part of
    the registered ``run()`` output (allocator peaks vary run to run,
    and the perf comparator treats figure drift as a regression)."""
    if measure_alloc:
        tracemalloc.start()
    loop = ShardedLoop()
    sender = ShardedEndpoint(
        loop, mtu=1500, shards=shards, idle_timeout=5.0,
        flush_window=SHARD_FLUSH_WINDOW,
    )
    receiver = ShardedEndpoint(
        loop, mtu=1500, shards=shards, idle_timeout=5.0,
        flush_window=SHARD_FLUSH_WINDOW,
    )
    net = build_shared_bottleneck(
        loop.member(0),
        pairs=[(receiver.receive_packet, sender.receive_packet)],
        bottleneck=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005, loss_rate=LOSS),
        reverse=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005),
        seed=seed + conversations,
    )
    port = net.ports[0]
    sender.transmit = port.send
    receiver.transmit = port.send_reverse
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(conversations, total_bytes=object_bytes, stagger=STAGGER))
    outcomes = work.run()
    complete = sum(1 for o in outcomes if o.complete)
    shares = [
        c.chunks_in
        for shard in receiver.shards
        for c in shard.endpoint.table.connections.values()
    ]
    sim_time = loop.now
    loop.at(sim_time + 5.0 + 1.0, lambda: None)
    loop.run()
    evicted = len(receiver.sweep())
    result = {
        "conversations": conversations,
        "shards": shards,
        "complete": complete,
        "sim_time": round(sim_time, 6),
        "goodput_mbps": round(complete * object_bytes * 8 / sim_time / 1e6, 3),
        "fairness": round(jain_fairness(shares), 4),
        "peak_pool_bytes": receiver.pool.peak_lent,
        "cross_shard_packets": sender.cross_shard_packets,
        "fanout_packets": receiver.fanout_packets,
        "evicted": evicted,
        "pool_after_sweep": receiver.pool.lent_total,
    }
    if measure_alloc:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result["tracemalloc_peak_kib"] = peak // 1024
    return result


def run_hog(
    peers: int = 8,
    peer_bytes: int = 4096,
    hog_bytes: int = 64 * 1024,
    pool_bytes: int = 96 * 1024,
    seed: int = 23,
) -> dict:
    """The fairness scenario: one hog versus *peers* on a small pool."""
    loop = EventLoop()
    budget = SharedPlacementBudget(pool_bytes=pool_bytes, min_share_bytes=8 * 1024)
    sender, receiver = _endpoint_pair(loop, 0.0, seed, budget=budget)
    for cid in range(1, peers + 1):
        conn = sender.open_connection(ConnectionConfig(connection_id=cid, tpdu_units=64))
        conn.send_frame(deterministic_payload(cid, peer_bytes), end_of_connection=True)
    hog = sender.open_connection(
        ConnectionConfig(connection_id=999, tpdu_units=64), max_retries=4
    )
    hog.send_frame(deterministic_payload(999, hog_bytes), end_of_connection=True)
    loop.run()
    peers_complete = sum(
        1
        for cid in range(1, peers + 1)
        if receiver.connection(cid) is not None
        and receiver.connection(cid).stream_bytes() == deterministic_payload(cid, peer_bytes)
    )
    hog_conn = receiver.connection(999)
    hog_rx = hog_conn.receiver.receiver if hog_conn and hog_conn.receiver else None
    return {
        "peers": peers,
        "peers_complete": peers_complete,
        "hog_gave_up": len(hog.sender.gave_up),
        "hog_bytes_placed": hog_rx.stream.bytes_placed if hog_rx else 0,
        "hog_refused_chunks": hog_rx.budget_refused_chunks if hog_rx else 0,
        "budget_refusals": budget.refusals,
        "hog_was_refused": int(budget.was_refused(999)),
        "pool_overrun": int(budget.peak_reserved > pool_bytes),
    }


# ----------------------------------------------------------------------
# pytest targets pinning the shape
# ----------------------------------------------------------------------

def test_every_conversation_completes_at_scale():
    figures = run_tier(64)
    assert figures["complete"] == 64
    assert figures["touches_ok"] == 64
    assert figures["fairness"] > 0.9


def test_eviction_reclaims_table_and_pool():
    figures = run_tier(16)
    assert figures["evicted"] == 16
    assert figures["pool_after_sweep"] == 0


def test_sharded_tier_completes_fairly_and_reclaims_the_pool():
    figures = run_sharded_tier(64)
    assert figures["complete"] == 64
    assert figures["fairness"] > 0.9
    assert figures["evicted"] == 64
    assert figures["pool_after_sweep"] == 0
    assert figures["cross_shard_packets"] > 0


def test_hog_is_refused_without_stalling_peers():
    figures = run_hog()
    assert figures["peers_complete"] == figures["peers"]
    assert figures["hog_gave_up"] > 0
    assert figures["budget_refusals"] > 0
    assert figures["hog_was_refused"] == 1
    assert figures["pool_overrun"] == 0


def test_scale_throughput(benchmark):
    figures = benchmark(run_tier, 16)
    assert figures["complete"] == 16


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: the tier sweep plus the hog scenario."""
    figures: dict[str, object] = {}
    for tier in CONN_TIERS:
        conversations = scaled(tier, payload_scale, minimum=2)
        result = run_tier(conversations)
        key = f"conns_{tier}"
        figures[f"{key}.complete"] = result["complete"]
        figures[f"{key}.goodput_mbps"] = result["goodput_mbps"]
        figures[f"{key}.fairness"] = result["fairness"]
        figures[f"{key}.peak_pool_bytes"] = result["peak_pool_bytes"]
        figures[f"{key}.mixed_packets"] = result["mixed_packets"]
        figures[f"{key}.evicted"] = result["evicted"]
    for tier in SHARDED_TIERS:
        conversations = scaled(tier, payload_scale, minimum=SHARDED_SHARDS)
        result = run_sharded_tier(conversations)
        key = f"sharded_{tier}"
        figures[f"{key}.complete"] = result["complete"]
        figures[f"{key}.goodput_mbps"] = result["goodput_mbps"]
        figures[f"{key}.fairness"] = result["fairness"]
        figures[f"{key}.peak_pool_bytes"] = result["peak_pool_bytes"]
        figures[f"{key}.cross_shard_packets"] = result["cross_shard_packets"]
        figures[f"{key}.evicted"] = result["evicted"]
        figures[f"{key}.pool_after_sweep"] = result["pool_after_sweep"]
    hog = run_hog()
    figures["hog.peers_complete"] = hog["peers_complete"]
    figures["hog.gave_up"] = hog["hog_gave_up"]
    figures["hog.budget_refusals"] = hog["budget_refusals"]
    figures["hog.pool_overrun"] = hog["pool_overrun"]
    return figures


def main():
    rows = [(
        "conns", "complete", "sim time (s)", "goodput (Mbps)",
        "fairness", "peak pool (KiB)", "mixed pkts", "evicted",
    )]
    for tier in CONN_TIERS:
        result = run_tier(tier)
        rows.append((
            tier, result["complete"], result["sim_time"], result["goodput_mbps"],
            result["fairness"], result["peak_pool_bytes"] // 1024,
            result["mixed_packets"], result["evicted"],
        ))
    print_table(
        "SCALE-CONN — one multiplexed endpoint, N concurrent conversations",
        rows,
    )
    sharded_rows = [(
        "conns", "shards", "complete", "sim time (s)", "goodput (Mbps)",
        "fairness", "peak pool (KiB)", "x-shard pkts", "alloc peak (KiB)",
    )]
    for tier in SHARDED_TIERS:
        result = run_sharded_tier(tier, measure_alloc=True)
        sharded_rows.append((
            tier, result["shards"], result["complete"], result["sim_time"],
            result["goodput_mbps"], result["fairness"],
            result["peak_pool_bytes"] // 1024, result["cross_shard_packets"],
            result["tracemalloc_peak_kib"],
        ))
    print_table(
        "SCALE-CONN (sharded) — C.ID-hashed worker shards, one pool, one wire",
        sharded_rows,
    )
    hog = run_hog()
    print(
        f"\nhog scenario: {hog['peers_complete']}/{hog['peers']} peers complete, "
        f"hog gave up {hog['hog_gave_up']} TPDUs after "
        f"{hog['budget_refusals']} budget refusals (pool overrun: "
        f"{'no' if not hog['pool_overrun'] else 'YES'})"
    )
    print("paper's frame: chunks make per-conversation state O(1) and")
    print("self-describing, so one endpoint scales to many conversations;")
    print("the shared pool turns Turner lock-up avoidance into per-")
    print("connection fairness (refusal, never blocking).")


if __name__ == "__main__":
    main()
