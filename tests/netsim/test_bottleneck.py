"""SharedBottleneck: N pairs, one link, chunk-aware C.ID demux."""

from __future__ import annotations

from repro.core.packet import Packet
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec
from tests.helpers import make_chunk


class Sink:
    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def __call__(self, frame: bytes) -> None:
        self.frames.append(frame)

    def chunk_ids(self) -> list[int]:
        return [
            chunk.c.ident
            for frame in self.frames
            for chunk in Packet.decode(frame).chunks
        ]


def fast_net(loop: EventLoop, pairs: int) -> tuple:
    sinks = [(Sink(), Sink()) for _ in range(pairs)]
    net = build_shared_bottleneck(
        loop,
        pairs=[(fwd, rev) for fwd, rev in sinks],
        bottleneck=HopSpec(mtu=1500, rate_bps=1e9, delay=0.0001),
        seed=3,
    )
    return net, sinks


def test_single_pair_fast_path_passes_frames_verbatim():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=1)
    # Even an undecodable frame passes through: with one pair and no
    # bound routes the demux never pays the decode.
    net.ports[0].send(b"not a packet")
    loop.run()
    assert sinks[0][0].frames == [b"not a packet"]
    assert net.frames_forward == 1
    assert net.undecodable_frames == 0


def test_single_pair_fast_path_is_byte_and_metric_identical_to_demux():
    """The fast path is an optimization, not a semantic: with one pair,
    delivering verbatim and decode-route-reencode must produce the same
    frames at the same simulated times with the same counters."""

    def run(force_general_path: bool):
        loop = EventLoop()
        net, sinks = fast_net(loop, pairs=1)
        if force_general_path:
            net.bind(1, net.ports[0])  # any bound route disables the fast path
        for i in range(12):
            # Mixed envelopes: bound C.ID 1 plus unbound C.ID 2 (which
            # falls back to port 0 either way).
            net.ports[0].send(
                Packet(
                    chunks=[make_chunk(c_id=1, t_id=i), make_chunk(c_id=2, t_id=i)]
                ).encode()
            )
            net.ports[0].send_reverse(
                Packet(chunks=[make_chunk(c_id=1, t_id=i, x_id=7)]).encode()
            )
        loop.run()
        forward, reverse = sinks[0]
        return (
            forward.frames,
            reverse.frames,
            (
                net.frames_forward,
                net.frames_reverse,
                net.split_frames,
                net.misrouted_chunks,
                net.undecodable_frames,
            ),
            loop.now,
        )

    assert run(force_general_path=False) == run(force_general_path=True)


def test_chunks_route_to_bound_ports_by_connection_id():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=3)
    net.bind(7, net.ports[1])
    net.bind(9, net.ports[2])
    frame = Packet(
        chunks=[make_chunk(c_id=7), make_chunk(c_id=9), make_chunk(c_id=7)]
    ).encode()
    net.ports[0].send(frame)
    loop.run()
    assert sinks[1][0].chunk_ids() == [7, 7]
    assert sinks[2][0].chunk_ids() == [9]
    assert sinks[0][0].frames == []
    assert net.split_frames == 1


def test_unbound_connection_falls_back_to_port_zero():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=2)
    net.ports[0].send(Packet(chunks=[make_chunk(c_id=42)]).encode())
    loop.run()
    assert sinks[0][0].chunk_ids() == [42]
    assert net.split_frames == 0


def test_single_port_frames_are_not_counted_as_split():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=2)
    net.bind(5, net.ports[1])
    net.ports[0].send(
        Packet(chunks=[make_chunk(c_id=5), make_chunk(c_id=5)]).encode()
    )
    loop.run()
    assert sinks[1][0].chunk_ids() == [5, 5]
    assert net.split_frames == 0


def test_route_to_detached_port_counts_misrouted_chunks():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=2)
    net.routes[3] = 9  # stale binding: port 9 never attached
    net.ports[0].send(
        Packet(chunks=[make_chunk(c_id=3), make_chunk(c_id=1)]).encode()
    )
    loop.run()
    assert net.misrouted_chunks == 1
    assert sinks[0][0].chunk_ids() == [1]


def test_undecodable_frames_are_dropped_and_counted():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=2)
    net.ports[0].send(b"\xff" * 32)
    loop.run()
    assert net.undecodable_frames == 1
    assert sinks[0][0].frames == []
    assert sinks[1][0].frames == []


def test_reverse_path_demultiplexes_to_the_sending_pair():
    loop = EventLoop()
    net, sinks = fast_net(loop, pairs=2)
    net.bind(11, net.ports[1])
    frame = Packet(chunks=[make_chunk(c_id=11), make_chunk(c_id=2)]).encode()
    net.ports[0].send_reverse(frame)
    loop.run()
    assert net.frames_reverse == 1
    assert sinks[1][1].chunk_ids() == [11]
    assert sinks[0][1].chunk_ids() == [2]
    assert net.split_frames == 1


def test_access_links_feed_the_shared_bottleneck():
    loop = EventLoop()
    sinks = [(Sink(), Sink()) for _ in range(2)]
    net = build_shared_bottleneck(
        loop,
        pairs=[(fwd, rev) for fwd, rev in sinks],
        bottleneck=HopSpec(mtu=1500, rate_bps=1e9, delay=0.0001),
        access=HopSpec(mtu=1500, rate_bps=1e8, delay=0.001),
        seed=4,
    )
    net.bind(1, net.ports[0])
    net.bind(2, net.ports[1])
    net.ports[0].send(Packet(chunks=[make_chunk(c_id=1)]).encode())
    net.ports[1].send(Packet(chunks=[make_chunk(c_id=2)]).encode())
    loop.run()
    # Both access links funnel into one bottleneck; each pair still only
    # sees its own conversation's chunks.
    assert net.frames_forward == 2
    assert sinks[0][0].chunk_ids() == [1]
    assert sinks[1][0].chunk_ids() == [2]
    # Access and propagation delay mean delivery takes simulated time.
    assert loop.now > 0.001


def test_lossy_bottleneck_drops_are_shared():
    loop = EventLoop()
    sinks = [(Sink(), Sink())]
    net = build_shared_bottleneck(
        loop,
        pairs=[(fwd, rev) for fwd, rev in sinks],
        bottleneck=HopSpec(mtu=1500, rate_bps=1e9, delay=0.0001, loss_rate=0.5),
        seed=11,
    )
    for i in range(40):
        net.ports[0].send(Packet(chunks=[make_chunk(c_id=1, t_id=i)]).encode())
    loop.run()
    delivered = len(sinks[0][0].frames)
    assert 0 < delivered < 40
