"""ChunkEndpoint: demux, lifecycle, shared accounting, egress mixing."""

from __future__ import annotations

import pytest

from repro.core.errors import EndpointError
from repro.core.packet import Packet
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.core.chunk import Chunk
from repro.host.budget import SharedPlacementBudget
from repro.netsim.events import EventLoop
from repro.obs import session
from repro.transport.acks import build_ack_chunk
from repro.transport.connection import ConnectionConfig, build_signaling_chunk
from repro.transport.endpoint import ChunkEndpoint, ConnectionState
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.conftest import make_chunk, make_payload


def wire(loop: EventLoop, a: ChunkEndpoint, b: ChunkEndpoint, delay: float = 0.001):
    """Connect two endpoints with lossless delayed delivery."""
    a.transmit = lambda frame: loop.schedule(delay, lambda f=frame: b.receive_packet(f))
    b.transmit = lambda frame: loop.schedule(delay, lambda f=frame: a.receive_packet(f))


def data_packet(sender: ChunkTransportSender, payload: bytes, signal: bool = True,
                end: bool = True) -> bytes:
    chunks = [sender.establishment_chunk()] if signal else []
    chunks += sender.send_frame(payload, end_of_connection=end)
    return Packet(chunks=chunks).encode()


# ----------------------------------------------------------------------
# Establishment and demultiplexing
# ----------------------------------------------------------------------

def test_signaling_establishes_connection():
    endpoint = ChunkEndpoint(EventLoop())
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    payload = make_payload(32)
    events = endpoint.receive_packet(data_packet(sender, payload))
    assert events.established == [9]
    connection = endpoint.connection(9)
    assert connection is not None
    assert connection.state is ConnectionState.CLOSED  # C.ST on last chunk
    assert connection.stream_bytes() == payload
    assert connection.config.tpdu_units == 16


def test_multi_conversation_packet_demuxes_by_cid():
    endpoint = ChunkEndpoint(EventLoop())
    payloads = {}
    chunks = []
    for cid in (3, 4, 5):
        sender = ChunkTransportSender(ConnectionConfig(connection_id=cid, tpdu_units=8))
        payloads[cid] = make_payload(16, seed=cid)
        chunks.append(sender.establishment_chunk())
        chunks += sender.send_frame(payloads[cid], end_of_connection=True)
    # One envelope, chunks from three conversations interleaved.
    chunks = chunks[::2] + chunks[1::2]
    events = endpoint.receive_packet(Packet(chunks=chunks).encode())
    assert sorted(events.established) == [3, 4, 5]
    assert len(events.per_connection) == 3
    for cid, expected in payloads.items():
        assert endpoint.connection(cid).stream_bytes() == expected


def test_unknown_cid_data_is_refused_and_counted():
    endpoint = ChunkEndpoint(EventLoop())
    events = endpoint.receive_packet(
        Packet(chunks=[make_chunk(units=4, c_id=77)]).encode()
    )
    assert events.refused_chunks == 1
    assert endpoint.refused_unknown == 1
    assert endpoint.connection(77) is None
    assert endpoint.stats()["refused_unknown"] == 1


def test_malformed_signaling_does_not_establish():
    endpoint = ChunkEndpoint(EventLoop())
    good = build_signaling_chunk(ConnectionConfig(connection_id=6))
    bad_payload = bytearray(good.payload)
    bad_payload[10] = 0xFF  # reserved byte
    bad = Chunk(
        type=ChunkType.SIGNALING, size=1, length=good.length,
        c=FramingTuple(6, 0, False), t=FramingTuple(0, 0, False),
        x=FramingTuple(0, 0, False), payload=bytes(bad_payload),
    )
    events = endpoint.receive_packet(Packet(chunks=[bad]).encode())
    assert events.established == []
    assert endpoint.connection(6) is None


def test_decode_failure_is_counted():
    endpoint = ChunkEndpoint(EventLoop())
    events = endpoint.receive_packet(b"\x00garbage")
    assert events.decode_failed
    assert endpoint.decode_failures == 1


# ----------------------------------------------------------------------
# Local open / capacity / ACK routing
# ----------------------------------------------------------------------

def test_open_connection_rejects_duplicates_and_capacity():
    endpoint = ChunkEndpoint(EventLoop(), max_connections=2)
    endpoint.transmit = lambda frame: None
    endpoint.open_connection(ConnectionConfig(connection_id=1))
    with pytest.raises(EndpointError):
        endpoint.open_connection(ConnectionConfig(connection_id=1))
    endpoint.open_connection(ConnectionConfig(connection_id=2))
    with pytest.raises(EndpointError):
        endpoint.open_connection(ConnectionConfig(connection_id=3))
    assert endpoint.connections_refused == 1


def test_send_on_connection_without_sender_session_raises():
    endpoint = ChunkEndpoint(EventLoop())
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    endpoint.receive_packet(data_packet(sender, make_payload(16)))
    with pytest.raises(EndpointError):
        endpoint.connection(9).send_frame(b"\x00" * 4)


def test_unroutable_acks_are_counted():
    endpoint = ChunkEndpoint(EventLoop())
    ack = build_ack_chunk(41, [0, 1])
    endpoint.receive_packet(Packet(chunks=[ack]).encode())
    endpoint.receive_packet(Packet(chunks=[ack]).encode())
    assert endpoint.acks_unroutable == 2


def test_acks_route_to_sender_session():
    loop = EventLoop()
    a = ChunkEndpoint(loop)
    b = ChunkEndpoint(loop)
    wire(loop, a, b)
    conn = a.open_connection(ConnectionConfig(connection_id=5, tpdu_units=16))
    conn.send_frame(make_payload(64), end_of_connection=True)
    loop.run()
    assert conn.finished
    assert a.acks_unroutable == 0
    assert b.connection(5).verified_tpdus() > 0


# ----------------------------------------------------------------------
# Egress mixing
# ----------------------------------------------------------------------

def test_egress_mixes_conversations_into_shared_packets():
    loop = EventLoop()
    a = ChunkEndpoint(loop, mtu=4096)
    b = ChunkEndpoint(loop, mtu=4096)
    wire(loop, a, b)
    # Two conversations send within the same flush window: their chunks
    # must share envelopes.
    for cid in (1, 2):
        conn = a.open_connection(ConnectionConfig(connection_id=cid, tpdu_units=8))
        conn.send_frame(make_payload(8, seed=cid), end_of_connection=True)
    loop.run()
    assert a.mixed_packets > 0
    for cid in (1, 2):
        assert b.connection(cid).stream_bytes() == make_payload(8, seed=cid)


def test_flush_requires_transmit():
    endpoint = ChunkEndpoint(EventLoop())
    endpoint.egress.enqueue(0, [build_ack_chunk(1, [0])])
    with pytest.raises(EndpointError):
        endpoint.loop.run()


# ----------------------------------------------------------------------
# Lifecycle: close, idle eviction, tombstones, reclamation
# ----------------------------------------------------------------------

def test_close_then_sweep_evicts_and_reclaims_budget():
    loop = EventLoop()
    endpoint = ChunkEndpoint(loop, idle_timeout=10.0, close_linger=2.0)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    endpoint.receive_packet(data_packet(sender, make_payload(32)))
    connection = endpoint.connection(9)
    assert connection.state is ConnectionState.CLOSED
    assert endpoint.budget.held(9) > 0

    assert endpoint.sweep(now=1.0) == []       # still lingering
    assert endpoint.sweep(now=3.0) == [9]      # past close_linger
    assert endpoint.connection(9) is None
    assert endpoint.budget.held(9) == 0
    assert endpoint.budget.reserved_total == 0
    assert endpoint.table.evicted_total == 1
    assert 9 in endpoint.table.evicted_ids


def test_idle_eviction_of_established_connection():
    loop = EventLoop()
    endpoint = ChunkEndpoint(loop, idle_timeout=5.0)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=3, tpdu_units=16))
    endpoint.receive_packet(data_packet(sender, make_payload(32), end=False))
    assert endpoint.connection(3).state is ConnectionState.ESTABLISHED
    assert endpoint.sweep(now=4.0) == []
    assert endpoint.sweep(now=5.0) == [3]


def test_data_for_evicted_cid_is_refused_as_evicted():
    endpoint = ChunkEndpoint(EventLoop(), close_linger=0.0)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    endpoint.receive_packet(data_packet(sender, make_payload(32)))
    endpoint.sweep(now=1.0)
    # A straggler retransmission (same C.ID, fresh builder) arrives
    # afterwards; the tombstone refuses even its establishment chunk.
    late = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    endpoint.receive_packet(data_packet(late, make_payload(16), signal=True))
    assert endpoint.refused_evicted > 0
    assert endpoint.refused_unknown == 0
    assert endpoint.connection(9) is None


def test_unfinished_sender_is_never_swept():
    loop = EventLoop()
    endpoint = ChunkEndpoint(loop, idle_timeout=0.5)
    endpoint.transmit = lambda frame: None  # black-hole network: no ACKs
    conn = endpoint.open_connection(ConnectionConfig(connection_id=4, tpdu_units=8))
    conn.send_frame(make_payload(16), end_of_connection=True)
    assert not conn.finished
    assert endpoint.sweep(now=100.0) == []


def test_reopening_evicted_cid_raises():
    endpoint = ChunkEndpoint(EventLoop(), close_linger=0.0)
    endpoint.transmit = lambda frame: None
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    endpoint.receive_packet(data_packet(sender, make_payload(32)))
    endpoint.sweep(now=1.0)
    with pytest.raises(EndpointError):
        endpoint.open_connection(ConnectionConfig(connection_id=9))


def test_close_connection_api():
    loop = EventLoop()
    endpoint = ChunkEndpoint(loop)
    endpoint.transmit = lambda frame: None
    endpoint.open_connection(ConnectionConfig(connection_id=2))
    endpoint.close_connection(2)
    assert endpoint.connection(2).state is ConnectionState.CLOSED
    with pytest.raises(EndpointError):
        endpoint.connection(2).send_frame(b"\x00" * 4)
    with pytest.raises(EndpointError):
        endpoint.close_connection(404)


# ----------------------------------------------------------------------
# Re-signaling until acknowledged (lost establishment recovery)
# ----------------------------------------------------------------------

def test_lost_establishment_is_repaired_by_resignaling():
    loop = EventLoop()
    a = ChunkEndpoint(loop)
    b = ChunkEndpoint(loop)
    dropped = {"count": 0}

    def lossy_first(frame: bytes) -> None:
        # Drop the very first packet (which carries the SIGNALING chunk).
        if dropped["count"] == 0:
            dropped["count"] += 1
            return
        loop.schedule(0.001, lambda f=frame: b.receive_packet(f))

    a.transmit = lossy_first
    b.transmit = lambda frame: loop.schedule(0.001, lambda f=frame: a.receive_packet(f))

    conn = a.open_connection(ConnectionConfig(connection_id=8, tpdu_units=16))
    payload = make_payload(16)
    conn.send_frame(payload, end_of_connection=True)
    loop.run()
    # The first retransmission re-sent the establishment chunk, so the
    # conversation recovered despite the receiver's initial refusal.
    assert dropped["count"] == 1
    assert b.refused_unknown == 0 or b.connection(8) is not None
    assert b.connection(8).stream_bytes() == payload
    assert conn.finished


# ----------------------------------------------------------------------
# Shared budget and per-connection accounting
# ----------------------------------------------------------------------

def test_budget_admission_refuses_beyond_min_shares():
    endpoint = ChunkEndpoint(
        EventLoop(),
        budget=SharedPlacementBudget(pool_bytes=2048, min_share_bytes=1024),
    )
    for cid in (1, 2):
        sender = ChunkTransportSender(ConnectionConfig(connection_id=cid, tpdu_units=4))
        endpoint.receive_packet(data_packet(sender, make_payload(4, seed=cid)))
        assert endpoint.connection(cid) is not None
    sender = ChunkTransportSender(ConnectionConfig(connection_id=3, tpdu_units=4))
    events = endpoint.receive_packet(data_packet(sender, make_payload(4, seed=3)))
    assert events.established == []
    assert endpoint.connection(3) is None
    assert endpoint.connections_refused == 1
    assert endpoint.refused_evicted > 0  # subsequent data counted as refused


def test_receiver_attached_to_a_local_conversation_is_admitted_like_any_other():
    # A SIGNALING chunk for a locally opened C.ID attaches a receiver
    # session; that session draws on the pool, so it passes admission —
    # it used to register itself at its first placement, behind it.
    endpoint = ChunkEndpoint(
        EventLoop(),
        transmit=lambda frame: None,
        budget=SharedPlacementBudget(pool_bytes=1024, min_share_bytes=1024),
    )
    endpoint.open_connection(ConnectionConfig(connection_id=1, tpdu_units=4))
    endpoint.open_connection(ConnectionConfig(connection_id=2, tpdu_units=4))
    peer = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=4))
    endpoint.receive_packet(Packet(chunks=[peer.establishment_chunk()]).encode())
    assert endpoint.connection(1).receiver is not None
    assert endpoint.budget.registered == 1  # at attach, before any data

    # The pool's one share is taken: the second attach is refused and
    # counted, the conversation stays open (and untombstoned) as a sender.
    peer = ChunkTransportSender(ConnectionConfig(connection_id=2, tpdu_units=4))
    events = endpoint.receive_packet(data_packet(peer, make_payload(4)))
    assert endpoint.connection(2).receiver is None
    assert endpoint.connections_refused == 1
    assert events.refused_chunks > 0
    assert 2 not in endpoint.table.evicted_ids
    assert endpoint.budget.registered == 1


def test_closed_entry_attaches_no_receiver():
    # A lingering closed entry exists to re-ACK; a SIGNALING chunk does
    # not open a new receive direction (or take a budget share) on it.
    endpoint = ChunkEndpoint(EventLoop(), transmit=lambda frame: None)
    endpoint.open_connection(ConnectionConfig(connection_id=5, tpdu_units=4))
    endpoint.close_connection(5)
    peer = ChunkTransportSender(ConnectionConfig(connection_id=5, tpdu_units=4))
    events = endpoint.receive_packet(data_packet(peer, make_payload(4)))
    assert endpoint.connection(5).receiver is None
    assert events.refused_chunks > 0
    assert endpoint.budget.registered == 0


def test_per_connection_touch_accounting_is_one_per_byte():
    endpoint = ChunkEndpoint(EventLoop())
    for cid in (1, 2):
        sender = ChunkTransportSender(ConnectionConfig(connection_id=cid, tpdu_units=16))
        endpoint.receive_packet(data_packet(sender, make_payload(64, seed=cid)))
        connection = endpoint.connection(cid)
        assert connection.touches_per_byte() == 1.0
        assert connection.ledger.touches == {"nic-to-app": 64 * 4}


def test_duplicate_chunks_do_not_double_count_touches():
    endpoint = ChunkEndpoint(EventLoop())
    sender = ChunkTransportSender(ConnectionConfig(connection_id=7, tpdu_units=16))
    frame = data_packet(sender, make_payload(64))
    endpoint.receive_packet(frame)
    endpoint.receive_packet(frame)  # duplicated delivery
    assert endpoint.connection(7).touches_per_byte() == 1.0


# ----------------------------------------------------------------------
# Satellite: unknown-TYPE chunks are counted, not silently dropped
# ----------------------------------------------------------------------

def test_receiver_counts_unknown_type_chunks():
    receiver = ChunkTransportReceiver()
    stray = Chunk(
        type=ChunkType.EXTERNAL_CONTROL, size=1, length=1,
        c=FramingTuple(1, 0, False), t=FramingTuple(0, 0, False),
        x=FramingTuple(0, 0, False), payload=b"\x00\x00\x00\x00",
    )
    with session() as (registry, _tracer):
        events = receiver.receive_chunks([stray, stray])
        counted = registry.counter("transport", "receiver.unknown_type_chunks").value
    assert receiver.unknown_type_chunks == 2
    assert events.verdicts == []
    assert counted == 2


def test_unknown_type_chunk_through_endpoint_does_not_crash():
    endpoint = ChunkEndpoint(EventLoop())
    sender = ChunkTransportSender(ConnectionConfig(connection_id=2, tpdu_units=16))
    endpoint.receive_packet(data_packet(sender, make_payload(16), end=False))
    stray = Chunk(
        type=ChunkType.EXTERNAL_CONTROL, size=1, length=1,
        c=FramingTuple(2, 0, False), t=FramingTuple(0, 0, False),
        x=FramingTuple(0, 0, False), payload=b"\x00\x00\x00\x00",
    )
    endpoint.receive_packet(Packet(chunks=[stray]).encode())
    connection = endpoint.connection(2)
    assert connection.receiver.receiver.unknown_type_chunks == 1


# ----------------------------------------------------------------------
# Tombstone semantics under C.ID churn
# ----------------------------------------------------------------------

def test_churn_refusal_counters_exact_across_reestablish_cycles():
    """refused_evicted vs refused_unknown stays *exact* while C.IDs
    cycle through establish → evict → (forgotten tombstone) →
    re-establish → evict, including the FIFO overflow degradation."""
    endpoint = ChunkEndpoint(EventLoop(), close_linger=0.0)
    endpoint.table.evicted_ids.max_entries = 2

    def one_object(cid: int) -> bytes:
        sender = ChunkTransportSender(
            ConnectionConfig(connection_id=cid, tpdu_units=16)
        )
        return data_packet(sender, make_payload(32))

    for now, cid in enumerate((1, 2, 3, 4), start=1):
        endpoint.receive_packet(one_object(cid))
        assert endpoint.sweep(now=float(now)) == [cid]
    # The FIFO remembers only the two newest tombstones; the two oldest
    # were dropped, and counted.
    assert sorted(endpoint.table.evicted_ids) == [3, 4]
    assert endpoint.table.evicted_ids.dropped == 2

    # Late traffic for a *remembered* C.ID: refused as evicted, exactly
    # one count per chunk (its establishment chunk included).
    late = one_object(4)
    n_late = len(Packet.decode(late).chunks)
    endpoint.receive_packet(late)
    assert endpoint.refused_evicted == n_late
    assert endpoint.refused_unknown == 0

    # Bare data for a *forgotten* C.ID degrades to the unknown count —
    # observably, not silently.
    bare = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=16))
    frame = data_packet(bare, make_payload(16), signal=False)
    n_bare = len(Packet.decode(frame).chunks)
    endpoint.receive_packet(frame)
    assert endpoint.refused_unknown == n_bare
    assert endpoint.refused_evicted == n_late

    # A forgotten C.ID may legitimately re-establish (the third cycle)...
    events = endpoint.receive_packet(one_object(1))
    assert events.established == [1]
    assert endpoint.sweep(now=10.0) == [1]
    # ...and its post-eviction stragglers count as evicted again.
    again = one_object(1)
    endpoint.receive_packet(again)
    assert endpoint.refused_evicted == n_late + len(Packet.decode(again).chunks)
    assert endpoint.refused_unknown == n_bare
    assert endpoint.table.established_total == 5
    assert endpoint.table.evicted_total == 5
