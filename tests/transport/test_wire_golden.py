"""Golden wire hashes: egress order and bytes are pinned, not assumed.

``tests/properties/test_shard_equivalence.py`` compares *delivered*
streams only, so a packer change that reorders chunks or re-cuts
envelopes would pass it.  These cases hash every frame each side hands
its wire, in transmit order, for small seeded lossy runs of the three
egress users — a plain :class:`ChunkEndpoint` pair, a
:class:`ShardedEndpoint` pair (four shards, a flush window, so the
lanes really interleave and the starting lane rotates), and a
standalone :class:`ReliableSender`/:class:`ReliableReceiver` pair.  The
digests were recorded before the sharded endpoint was recomposed from
the unsharded machinery; any refactor of loop, packer or demux must
reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.app.concurrent import ConcurrentWorkload, staggered_specs
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import HopSpec
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.reliability import ReliableReceiver, ReliableSender
from repro.transport.shard import ShardedEndpoint
from tests.helpers import deterministic_bytes

MTU = 600


class WireHash:
    """sha256 over every transmitted frame, direction-tagged, in order."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self.frames = 0

    def tap(self, tag: bytes, send: Callable[[bytes], None]) -> Callable[[bytes], None]:
        def transmit(frame: bytes) -> None:
            self._digest.update(tag + len(frame).to_bytes(4, "big") + frame)
            self.frames += 1
            send(frame)

        return transmit

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def endpoint_wire(shards: int | None) -> tuple[str, int]:
    """Six staggered conversations over a 2%-loss bottleneck."""
    if shards is None:
        loop: EventLoop | ShardedLoop = EventLoop()
        netloop = loop
        sender: ChunkEndpoint | ShardedEndpoint = ChunkEndpoint(loop, mtu=MTU)
        receiver: ChunkEndpoint | ShardedEndpoint = ChunkEndpoint(loop, mtu=MTU)
    else:
        loop = ShardedLoop()
        netloop = loop.member(0)
        sender = ShardedEndpoint(loop, mtu=MTU, shards=shards, flush_window=0.001)
        receiver = ShardedEndpoint(loop, mtu=MTU, shards=shards, flush_window=0.001)
    topology = build_shared_bottleneck(
        netloop,
        pairs=[(receiver.receive_packet, sender.receive_packet)],
        bottleneck=HopSpec(mtu=MTU, rate_bps=100e6, delay=0.001, loss_rate=0.02),
        seed=7,
    )
    wire = WireHash()
    sender.transmit = wire.tap(b">", topology.ports[0].send)
    receiver.transmit = wire.tap(b"<", topology.ports[0].send_reverse)
    workload = ConcurrentWorkload(loop=loop, sender=sender, receiver=receiver)
    workload.launch(staggered_specs(6, total_bytes=3072))
    workload.run()
    for spec in workload.specs:
        connection = receiver.connection(spec.connection_id)
        assert connection is not None
        assert len(connection.stream_bytes()) >= spec.total_bytes
    stats = sender.stats()
    assert stats["mixed_packets"] > 0
    if shards is not None:
        assert stats["cross_shard_packets"] > 0
    return wire.hexdigest(), wire.frames


def standalone_wire() -> tuple[str, int]:
    """One reliable conversation, 5% loss forward, ACKs on a clean link."""
    loop = EventLoop()
    wire = WireHash()

    def deliver_acks(frame: bytes) -> None:
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                sender.handle_ack_chunk(chunk)

    reverse = Link(loop, deliver=deliver_acks, mtu=MTU)
    receiver = ReliableReceiver(transmit=wire.tap(b"<", reverse.send), mtu=MTU)
    forward = Link(
        loop, deliver=receiver.receive_packet, mtu=MTU, loss_rate=0.05,
        rng=substream(11, "forward"),
    )
    sender = ReliableSender(
        loop, wire.tap(b">", forward.send),
        ConnectionConfig(connection_id=5, tpdu_units=64), mtu=MTU,
    )
    payload = deterministic_bytes(8192, seed=3)
    for index in range(8):
        frame = payload[index * 1024 : (index + 1) * 1024]
        loop.at(index * 0.002, lambda f=frame, last=index == 7: sender.send_frame(
            f, end_of_connection=last
        ))
    loop.run()
    assert sender.finished and not sender.gave_up
    assert sender.retransmissions > 0
    assert receiver.receiver.stream_bytes()[: len(payload)] == payload
    return wire.hexdigest(), wire.frames


def test_unsharded_endpoint_wire_is_byte_identical_to_the_recorded_run():
    assert endpoint_wire(None) == (
        "f299dc3dd433d6641b0536ed3aa949ba2a00fc9c8c4a95957d08299c74432739", 150,
    )


def test_sharded_endpoint_wire_is_byte_identical_to_the_recorded_run():
    assert endpoint_wire(4) == (
        "7b865a490c15edfaddd4fad55b133882cf8cdf8f97c385bc3f2f18d3cbd9611c", 84,
    )


def test_standalone_reliable_pair_wire_is_byte_identical_to_the_recorded_run():
    assert standalone_wire() == (
        "7b0c79bdcd5a75a09982cfa587653ed57b1c2fe24c8932f25b94b39f0edb8c67", 68,
    )
