"""Golden wire hashes: egress order and bytes are pinned, not assumed.

``tests/properties/test_shard_equivalence.py`` compares *delivered*
streams only, so a packer change that reorders chunks or re-cuts
envelopes would pass it.  These cases hash every frame each side hands
its wire, in transmit order, for small seeded lossy runs of the three
egress users — a plain :class:`ChunkEndpoint` pair, a
:class:`ShardedEndpoint` pair (four shards, a flush window, so
several lanes share a flush and the starting lane rotates), and a
standalone :class:`ReliableSender`/:class:`ReliableReceiver` pair.  The
digests were recorded before the sharded endpoint was recomposed from
the unsharded machinery; any refactor of loop, packer or demux must
reproduce them bit for bit.

The sharded run was re-recorded when gap reports went on the wire: its
frames up to the first report (frame 76, which reports only TPDU 2 of
C.ID 5's ED chunk missing) are the old recording's, the sender then
repeats that ED chunk alone instead of the whole TPDU, and every
conversation delivers the same stream.  The other two runs have no
incomplete TPDU behind the reorder horizon and are unchanged.

Since an ED chunk right behind its TPDU's final DATA chunk goes on the
wire without a header (Appendix A), the recorded digests hash each frame
re-expanded to full headers — the envelope, then every decoded chunk
encoded alone — and a second digest per run pins the raw frames.  Only
frames that carry an ED chunk may differ from their expansion, so a
plain ACK frame is byte-identical.

The sharded run was re-recorded again when egress stopped interleaving
lanes chunk by chunk: each lane now drains whole, so a final DATA chunk
and its ED chunk stay side by side.  Its frames up to 46 are the old
recording's; frame 47 carries C.ID 4's final DATA chunk of TPDU 8 and
that TPDU's ED chunk, where it carried C.ID 5's SIGNALING chunk between
them, and the run sends 83 frames where it sent 85.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.app.concurrent import ConcurrentWorkload, staggered_specs
from repro.core.codec import encode_chunk, encode_packet_header
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import HopSpec
from repro.transport.acks import build_ack_chunk, parse_ack_chunk
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.reliability import ReliableReceiver, ReliableSender
from repro.transport.shard import ShardedEndpoint
from tests.helpers import deterministic_bytes

MTU = 600


def full_headers(chunks: list) -> bytes:
    """A frame carrying *chunks*, each with its own header."""
    return encode_packet_header() + b"".join(map(encode_chunk, chunks))


class WireHash:
    """sha256 over every transmitted frame, direction-tagged, in order:
    ``recorded`` over each frame as the digest was recorded (full
    headers), ``raw`` over the frame itself."""

    def __init__(self) -> None:
        self._recorded = hashlib.sha256()
        self._raw = hashlib.sha256()
        self.frames = 0
        self.first_elided: int | None = None  # the first frame shorter than its expansion
        self.plain_ack_frames = 0

    def tap(
        self,
        tag: bytes,
        send: Callable[[bytes], None],
        recorded: Callable[[list], list] = list,
    ) -> Callable[[bytes], None]:
        """Hash the frame with ``recorded(chunks)`` for its decoded
        chunks, each re-expanded to a full header, and the frame as
        sent; send the frame itself."""

        def transmit(frame: bytes) -> None:
            chunks = Packet.decode(frame).chunks
            expanded = full_headers(chunks)
            if expanded != frame:
                assert any(chunk.type is ChunkType.ERROR_DETECTION for chunk in chunks)
                if self.first_elided is None:
                    self.first_elided = self.frames
            if all(chunk.type is ChunkType.ACK and not chunk.t_st for chunk in chunks):
                self.plain_ack_frames += 1
            hashed = full_headers(recorded(chunks))
            self._recorded.update(tag + len(hashed).to_bytes(4, "big") + hashed)
            self._raw.update(tag + len(frame).to_bytes(4, "big") + frame)
            self.frames += 1
            send(frame)

        return transmit

    def hexdigest(self) -> str:
        return self._recorded.hexdigest()

    def raw_hexdigest(self) -> str:
        return self._raw.hexdigest()


def endpoint_wire(shards: int | None) -> WireHash:
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
    return wire


def standalone_wire(ack_c_ids: list[int]) -> WireHash:
    """One reliable conversation, 5% loss forward, ACKs on a clean link.

    This run loses its SIGNALING chunk, so its receiver is never
    configured.  When the digest was recorded, such a receiver labelled
    its ACK chunks C.ID 0; they now carry the C.ID of the TPDUs they
    acknowledge.  Each ACK chunk's C.ID is appended to *ack_c_ids* and
    hashed as 0, so every other byte is still held to the recording.
    """
    loop = EventLoop()
    wire = WireHash()

    def as_recorded(chunks: list) -> list:
        for index, chunk in enumerate(chunks):
            if chunk.type is ChunkType.ACK:
                ack_c_ids.append(chunk.c_id)
                chunks[index] = build_ack_chunk(0, parse_ack_chunk(chunk))
        return chunks

    def deliver_acks(frame: bytes) -> None:
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                sender.handle_ack_chunk(chunk)

    reverse = Link(loop, deliver=deliver_acks, mtu=MTU)
    receiver = ReliableReceiver(transmit=wire.tap(b"<", reverse.send, as_recorded), mtu=MTU)
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
    return wire


def test_unsharded_endpoint_wire_is_byte_identical_to_the_recorded_run():
    wire = endpoint_wire(None)
    assert (wire.hexdigest(), wire.frames) == (
        "f299dc3dd433d6641b0536ed3aa949ba2a00fc9c8c4a95957d08299c74432739", 150,
    )
    assert (wire.raw_hexdigest(), wire.first_elided, wire.plain_ack_frames) == (
        "2376e7148af616ff0832e2f54ef7ac58377b56ce84837148209e5c960235c8cf", 0, 74,
    )


def test_sharded_endpoint_wire_is_byte_identical_to_the_recorded_run():
    wire = endpoint_wire(4)
    assert (wire.hexdigest(), wire.frames) == (
        "7ad53b898fa9bdd7832bb4d988c7ed757d87e3570023fd163dd8e7d225872be2", 83,
    )
    assert (wire.raw_hexdigest(), wire.first_elided, wire.plain_ack_frames) == (
        "cccd841ad0188139775eed3f550432ee8c0f3e3c2f6d0dd829815fbc17d9ae82", 0, 9,
    )


def test_standalone_reliable_pair_wire_is_byte_identical_to_the_recorded_run():
    ack_c_ids: list[int] = []
    wire = standalone_wire(ack_c_ids)
    assert (wire.hexdigest(), wire.frames) == (
        "7b0c79bdcd5a75a09982cfa587653ed57b1c2fe24c8932f25b94b39f0edb8c67", 68,
    )
    assert (wire.raw_hexdigest(), wire.first_elided, wire.plain_ack_frames) == (
        "4d8dfd33b06a1163a6624f57f9cce86e82713394c186ccfff4e3d09bc6816b5d", 0, 32,
    )
    assert ack_c_ids == [5] * 32  # the conversation's C.ID, not 0
