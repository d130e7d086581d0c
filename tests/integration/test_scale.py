"""Scale test: a large transfer through a hostile multi-hop network.

One megabyte, three hops with shrinking MTUs, duplication on one hop,
multipath-grade reordering from a route switch, loss on the last hop,
ACK-driven recovery — everything at once, byte-exact at the end.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.netsim.topology import HopSpec, build_chunk_path
from repro.transport.connection import ConnectionConfig
from repro.transport.reliability import ReliableReceiver, ReliableSender

OBJECT_BYTES = 1 * 1024 * 1024


@pytest.mark.slow
def test_megabyte_through_hostile_network():
    loop = EventLoop()
    box = {}

    def deliver(frame):
        box["rx"].receive_packet(frame)

    path = build_chunk_path(
        loop,
        [
            HopSpec(mtu=4096, rate_bps=622e6, delay=0.002, dup_rate=0.02),
            HopSpec(mtu=1500, rate_bps=622e6, delay=0.002),
            HopSpec(mtu=576, rate_bps=622e6, delay=0.002, loss_rate=0.05),
        ],
        deliver,
        seed=42,
    )

    sender = ReliableSender(
        loop,
        path.send,
        ConnectionConfig(connection_id=77, tpdu_units=2048),
        mtu=4096,
        rto=0.08,
        max_retries=30,
    )

    def deliver_acks(frame):
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                sender.handle_ack_chunk(chunk)

    ack_link = Link(
        loop, deliver=deliver_acks, loss_rate=0.05,
        rng=substream(42, "acks"), mtu=1500,
    )
    box["rx"] = ReliableReceiver(transmit=ack_link.send)

    rng = random.Random(9)
    payload = bytes(rng.getrandbits(8) for _ in range(OBJECT_BYTES))
    digest = hashlib.sha256(payload).hexdigest()

    frame_bytes = 32 * 1024
    frame_count = OBJECT_BYTES // frame_bytes
    for index in range(frame_count):
        piece = payload[index * frame_bytes : (index + 1) * frame_bytes]
        last = index == frame_count - 1
        loop.at(
            index * 0.003,
            lambda d=piece, i=index, eoc=last: sender.send_frame(
                d, frame_id=i, end_of_connection=eoc
            ),
        )
    loop.run()
    # Drain router batches if any remain, then finish retransmissions.
    for _ in range(3):
        path.run()
        loop.run()

    received = box["rx"].receiver.stream_bytes()
    assert len(received) == OBJECT_BYTES
    assert hashlib.sha256(received).hexdigest() == digest
    assert sender.gave_up == []
    assert box["rx"].receiver.corrupted_tpdus() == 0
    # The network genuinely misbehaved:
    assert sender.retransmissions > 0
    assert box["rx"].receiver.duplicate_chunks > 0
