"""Each ``except CodecError`` catches a codec failure and nothing else.

Five entry points decode a frame and treat a ``CodecError`` as a bad
packet to count: the receiver, the endpoint, the sharded endpoint's
router, ``ChunkRouter`` and ``SharedBottleneck``.  The Table 1 failure
classifications stay meaningful only if a handler there is no wider
than that: an ``except Exception`` would count a programming error as a
corrupt packet and carry on.  So a foreign exception raised where the
decode runs must come out of each entry point unchanged.
"""

from __future__ import annotations

import pytest

from repro.core.packet import Packet
from repro.netsim.bottleneck import SharedBottleneck
from repro.netsim.events import EventLoop
from repro.netsim.router import ChunkRouter
from repro.netsim.shardloop import ShardedLoop
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.shard import ShardedEndpoint


class Foreign(Exception):
    """Not a repro error: no handler in the tree may expect it."""


def _bottleneck(frame: bytes) -> None:
    network = SharedBottleneck(EventLoop())
    port = network.attach_pair(lambda _: None, lambda _: None)
    network.attach_pair(lambda _: None, lambda _: None)  # two ports: frames are split
    port.send(frame)
    network.run()


ENTRY_POINTS = {
    "receiver": lambda frame: ChunkTransportReceiver().receive_packet(frame),
    "endpoint": lambda frame: ChunkEndpoint(EventLoop()).receive_packet(frame),
    "shard-router": lambda frame: ShardedEndpoint(ShardedLoop(), shards=2).receive_packet(frame),
    "router": lambda frame: ChunkRouter(EventLoop(), lambda _: None, out_mtu=1500).receive(frame),
    "bottleneck": _bottleneck,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_foreign_error_under_the_decode_propagates(entry, monkeypatch):
    def decode(cls, data):
        raise Foreign(entry)

    monkeypatch.setattr(Packet, "decode", classmethod(decode))
    with pytest.raises(Foreign):
        ENTRY_POINTS[entry](b"\x00" * 64)
