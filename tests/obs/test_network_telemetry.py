"""The network side's series read the same however they are published.

Links, routers, endpoints, reliable sessions and the shard pool keep
their counts as their own integers and publish them as deltas once per
entry point; gauges and histograms are written where they move.  One
session drives every kind of number they publish —

- an endpoint pair over a lossy, duplicating link, through a refragmenting
  router with a batch window (its pending-chunk gauge peaks, then
  flushes to zero inside one call), then an eviction sweep;
- a reliable sender whose packets all vanish: RTO timeouts,
  retransmission events and one give-up;
- a 4-shard endpoint pair whose shard budgets borrow blocks from the
  global pool and give them back on eviction —

and pins the whole metric snapshot (high-water marks and histogram
buckets included) to what the per-event pushes recorded, and its event
log — every conn-, tpdu- and frame-level journey record, and each
chunk's retransmissions — to what the journey tracker recorded.
"""

from __future__ import annotations

import repro.app.concurrent  # noqa: F401 — every declared series is in the snapshot
import repro.netsim.adversary  # noqa: F401
import repro.netsim.bottleneck  # noqa: F401
import repro.paper.receiver  # noqa: F401
import repro.paper.trace  # noqa: F401
from repro.host.pool import GlobalBudgetPool
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.netsim.router import ChunkRouter
from repro.netsim.shardloop import ShardedLoop
from repro.obs import journey_session, metric_snapshot, session
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.reliability import ReliableSender
from repro.transport.shard import ShardedEndpoint
from tests.helpers import make_payload


def _lossy_pair() -> None:
    loop = EventLoop()
    sender, receiver = ChunkEndpoint(loop), ChunkEndpoint(loop, idle_timeout=1.0)
    to_receiver = Link(loop, receiver.receive_packet, mtu=600, rng=substream(29, "out"))
    router = ChunkRouter(loop, forward=to_receiver.send, out_mtu=600, batch_window=2e-4)
    lossy = Link(
        loop, router.receive, loss_rate=0.15, dup_rate=0.15, rng=substream(29, "lossy")
    )
    sender.transmit = lossy.send
    receiver.transmit = Link(loop, sender.receive_packet, rng=substream(29, "back")).send
    for cid in (3, 4):
        connection = sender.open_connection(
            ConnectionConfig(connection_id=cid, tpdu_units=256), rto=0.02
        )
        for index in range(3):
            payload = make_payload(256, seed=10 * cid + index)  # one 1 KiB chunk: split
            connection.send_frame(payload, end_of_connection=index == 2)
    loop.run()
    receiver.sweep(loop.now + 5.0)
    sender.sweep(loop.now + 5.0)


def _give_up() -> None:
    loop = EventLoop()
    sender = ReliableSender(
        loop, lambda frame: None, ConnectionConfig(connection_id=9, tpdu_units=8),
        rto=0.01, max_retries=2,
    )
    sender.send_frame(make_payload(8), end_of_connection=True)
    loop.run()


def _sharded_lends() -> None:
    loop = ShardedLoop()
    pool = GlobalBudgetPool(block_bytes=1024)
    sender = ShardedEndpoint(loop, shards=4)
    receiver = ShardedEndpoint(loop, shards=4, pool=pool, idle_timeout=1.0)
    sender.transmit, receiver.transmit = receiver.receive_packet, sender.receive_packet
    for cid in range(20, 25):
        connection = sender.open_connection(ConnectionConfig(connection_id=cid))
        connection.send_frame(make_payload(600, seed=cid), end_of_connection=True)
    loop.run()
    receiver.sweep(loop.now + 5.0)
    assert pool.lends and pool.lent_total == 0


Event = tuple[str, str, float, int, int, dict[str, object]]


def _observed() -> tuple[dict[str, object], list[Event]]:
    with session() as (registry, _), journey_session() as tracker:
        _lossy_pair()
        _give_up()
        _sharded_lends()
    events = [
        (r.level, r.stage, r.t, r.c_id, r.gen, r.fields)
        for r in tracker.records
        if r.level != "chunk" or r.stage == "retransmit"
    ]
    return metric_snapshot(registry), events


def test_network_series_keep_their_per_event_values():
    snapshot, events = _observed()
    assert snapshot == SNAPSHOT
    assert events == EVENTS


# What the per-event pushes recorded for :func:`_observed`.  The link's
# bytes and the lossy pair's conn times were re-read when an ED chunk
# behind its final DATA chunk lost its header (shorter frames, earlier
# arrivals).  They were re-read again, with the packet and ACK counts
# and the sharded pair's event order, when egress came to drain each
# lane whole and packing and the batching router to size an elided ED
# chunk at its 12 bytes.

SNAPSHOT: dict[str, object] = {
    "app.workload.conversations_active": 0,
    "app.workload.conversations_active.high_water": 0,
    "app.workload.conversations_completed": 0,
    "app.workload.conversations_launched": 0,
    "host.budget.reclaimed_bytes": 18144,
    "host.budget.refusals": 0,
    "host.budget.reserved_bytes": 0,
    "host.budget.reserved_bytes.high_water": 6144,
    "host.data_touch_bytes": 18144,
    "host.data_touches": 27,
    "host.delivered_bytes": 0,
    "host.deliveries": 0,
    "host.pool.lends": 13,
    "host.pool.lent_bytes": 0,
    "host.pool.lent_bytes.high_water": 13312,
    "host.pool.reclaimed_bytes": 13312,
    "host.pool.refusals": 0,
    "host.reassembly_buffer_bytes": 0,
    "host.reassembly_buffer_bytes.high_water": 0,
    "host.reorder_buffer_bytes": 0,
    "host.reorder_buffer_bytes.high_water": 0,
    "host.touch.nic-to-app_bytes": 18144,
    "host.touch_bytes_total": 18144,
    "netsim.adversary.forged_chunks": 0,
    "netsim.adversary.frames_attacked": 0,
    "netsim.adversary.frames_coalesced": 0,
    "netsim.adversary.frames_displaced": 0,
    "netsim.adversary.frames_flooded": 0,
    "netsim.bottleneck.frames_forward": 0,
    "netsim.bottleneck.frames_reverse": 0,
    "netsim.bottleneck.misrouted_chunks": 0,
    "netsim.bottleneck.split_frames": 0,
    "netsim.bottleneck.undecodable_frames": 0,
    "netsim.link.bytes_delivered": 29564,
    "netsim.link.frames_corrupted": 0,
    "netsim.link.frames_delivered": 48,
    "netsim.link.frames_dropped_oversize": 0,
    "netsim.link.frames_duplicated": 4,
    "netsim.link.frames_in": 47,
    "netsim.link.frames_lost": 3,
    "netsim.link.inflight_frames": 0,
    "netsim.link.inflight_frames.high_water": 13,
    "netsim.loop.events_processed": 118,
    "netsim.loop.sim_time_total": 0.26,
    "netsim.router.chunks_in": 29,
    "netsim.router.chunks_merged": 0,
    "netsim.router.chunks_out": 42,
    "netsim.router.chunks_split": 13,
    "netsim.router.decode_failures": 0,
    "netsim.router.frames_in": 13,
    "netsim.router.frames_out": 27,
    "netsim.router.pending_chunks": 0,
    "netsim.router.pending_chunks.high_water": 3,
    "netsim.trace.arrivals": 0,
    "netsim.trace.arrivals.high_water": 0,
    "netsim.trace.disorder_fraction": 0,
    "netsim.trace.disorder_fraction.high_water": 0,
    "netsim.trace.late_arrivals": 0,
    "netsim.trace.late_arrivals.high_water": 0,
    "netsim.trace.max_displacement": 0,
    "netsim.trace.max_displacement.high_water": 0,
    "transport.ack_batch_size.bucket[0]": 13,
    "transport.ack_batch_size.bucket[1]": 5,
    "transport.ack_batch_size.count": 18,
    "transport.ack_batch_size.max": 2,
    "transport.ack_batch_size.min": 1,
    "transport.ack_batch_size.sum": 23.0,
    "transport.ack_batches": 18,
    "transport.acks_received": 21,
    "transport.endpoint.acks_unroutable": 0,
    "transport.endpoint.chunks_routed": 80,
    "transport.endpoint.connections_active": 0,
    "transport.endpoint.connections_active.high_water": 2,
    "transport.endpoint.connections_closed": 7,
    "transport.endpoint.connections_established": 14,
    "transport.endpoint.connections_evicted": 7,
    "transport.endpoint.connections_refused": 0,
    "transport.endpoint.mixed_packets": 3,
    "transport.endpoint.packets_received": 48,
    "transport.endpoint.packets_sent": 31,
    "transport.endpoint.refused_evicted": 0,
    "transport.endpoint.refused_unknown": 15,
    "transport.endpoint.stalled_evictions": 0,
    "transport.receiver.budget_refused_chunks": 0,
    "transport.receiver.chunks_received": 62,
    "transport.receiver.decode_failures": 0,
    "transport.receiver.duplicate_chunks": 4,
    "transport.receiver.ooo_distance.bucket[-21]": 24,
    "transport.receiver.ooo_distance.bucket[7]": 1,
    "transport.receiver.ooo_distance.bucket[8]": 2,
    "transport.receiver.ooo_distance.bucket[9]": 4,
    "transport.receiver.ooo_distance.count": 31,
    "transport.receiver.ooo_distance.max": 512,
    "transport.receiver.ooo_distance.min": 0,
    "transport.receiver.ooo_distance.sum": 2284.0,
    "transport.receiver.overlap_conflict_chunks": 0,
    "transport.receiver.packets_received": 0,
    "transport.receiver.rejected_placements": 0,
    "transport.receiver.signaling_rejected": 0,
    "transport.receiver.unknown_type_chunks": 0,
    "transport.retransmissions": 8,
    "transport.rto_timeouts": 9,
    "transport.sender.chunks_emitted": 44,
    "transport.sender.frames_sent": 12,
    "transport.sender.retransmitted_chunks": 16,
    "transport.sender.tpdus_sent": 22,
    "transport.shard.cross_shard_packets": 1,
    "transport.shard.fanout_packets": 1,
    "transport.tpdus_gave_up": 1,
    "wsc.decode_fail.code-mismatch": 0,
    "wsc.decode_fail.reassembly-error": 0,
    "wsc.decode_ok": 0,
    "wsc.fail.code-mismatch": 0,
    "wsc.fail.consistency-check": 0,
    "wsc.fail.reassembly-error": 0,
    "wsc.tpdu_corrupted": 0,
    "wsc.tpdu_verified": 21,
}

# What the journey tracker recorded for :func:`_observed`: (level, stage,
# t, c_id, gen, fields).

EVENTS: list[Event] = [
    ("conn", "established", 0.002066935483870968, 3, 0, {}),
    ("frame", "delivered", 0.0, 3, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 3, 0, {"t_id": 0, "ok": True}),
    ("chunk", "retransmit", 0.02, 3, 1, {"t_id": 1, "x_id": 1}),
    ("chunk", "retransmit", 0.02, 3, 1, {"t_id": 2, "x_id": 2}),
    ("chunk", "retransmit", 0.02, 4, 1, {"t_id": 0, "x_id": 0}),
    ("chunk", "retransmit", 0.02, 4, 1, {"t_id": 1, "x_id": 1}),
    ("chunk", "retransmit", 0.02, 4, 1, {"t_id": 2, "x_id": 2}),
    ("frame", "delivered", 0.0, 3, 0, {"x_id": 1}),
    ("tpdu", "verified", 0.0, 3, 0, {"t_id": 1, "ok": True}),
    ("frame", "delivered", 0.0, 3, 0, {"x_id": 2}),
    ("tpdu", "verified", 0.0, 3, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.022239116129032267, 3, 0, {}),
    ("conn", "established", 0.022239116129032267, 4, 0, {}),
    ("frame", "delivered", 0.0, 4, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 4, 0, {"t_id": 0, "ok": True}),
    ("frame", "delivered", 0.0, 4, 0, {"x_id": 2}),
    ("tpdu", "verified", 0.0, 4, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.02235885806451614, 4, 0, {}),
    ("chunk", "retransmit", 0.06, 4, 2, {"t_id": 1, "x_id": 1}),
    ("frame", "delivered", 0.0, 4, 0, {"x_id": 1}),
    ("tpdu", "verified", 0.0, 4, 0, {"t_id": 1, "ok": True}),
    ("conn", "evicted", 5.14, 3, 0, {"reason": "closed"}),
    ("conn", "evicted", 5.14, 4, 0, {"reason": "closed"}),
    ("chunk", "retransmit", 0.01, 9, 1, {"t_id": 0, "x_id": 0}),
    ("chunk", "retransmit", 0.03, 9, 2, {"t_id": 0, "x_id": 0}),
    ("tpdu", "gave_up", 0.07, 9, 0, {"t_id": 0}),
    ("conn", "established", 0.0, 20, 0, {"shard": 1}),
    ("tpdu", "verified", 0.0, 20, 0, {"t_id": 0, "ok": True}),
    ("tpdu", "verified", 0.0, 20, 0, {"t_id": 1, "ok": True}),
    ("frame", "delivered", 0.0, 20, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 20, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.0, 20, 0, {"shard": 1}),
    ("conn", "established", 0.0, 22, 0, {"shard": 1}),
    ("tpdu", "verified", 0.0, 22, 0, {"t_id": 0, "ok": True}),
    ("tpdu", "verified", 0.0, 22, 0, {"t_id": 1, "ok": True}),
    ("frame", "delivered", 0.0, 22, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 22, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.0, 22, 0, {"shard": 1}),
    ("conn", "established", 0.0, 24, 0, {"shard": 2}),
    ("tpdu", "verified", 0.0, 24, 0, {"t_id": 0, "ok": True}),
    ("tpdu", "verified", 0.0, 24, 0, {"t_id": 1, "ok": True}),
    ("frame", "delivered", 0.0, 24, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 24, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.0, 24, 0, {"shard": 2}),
    ("conn", "established", 0.0, 21, 0, {"shard": 3}),
    ("tpdu", "verified", 0.0, 21, 0, {"t_id": 0, "ok": True}),
    ("tpdu", "verified", 0.0, 21, 0, {"t_id": 1, "ok": True}),
    ("frame", "delivered", 0.0, 21, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 21, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.0, 21, 0, {"shard": 3}),
    ("conn", "established", 0.0, 23, 0, {"shard": 3}),
    ("tpdu", "verified", 0.0, 23, 0, {"t_id": 0, "ok": True}),
    ("tpdu", "verified", 0.0, 23, 0, {"t_id": 1, "ok": True}),
    ("frame", "delivered", 0.0, 23, 0, {"x_id": 0}),
    ("tpdu", "verified", 0.0, 23, 0, {"t_id": 2, "ok": True}),
    ("conn", "closed", 0.0, 23, 0, {"shard": 3}),
    ("conn", "evicted", 5.05, 20, 0, {"reason": "closed", "shard": 1}),
    ("conn", "evicted", 5.05, 22, 0, {"reason": "closed", "shard": 1}),
    ("conn", "evicted", 5.05, 24, 0, {"reason": "closed", "shard": 2}),
    ("conn", "evicted", 5.05, 21, 0, {"reason": "closed", "shard": 3}),
    ("conn", "evicted", 5.05, 23, 0, {"reason": "closed", "shard": 3}),
]
