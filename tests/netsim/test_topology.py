"""Unit tests for multi-hop paths with chunk routers."""

import pytest

from repro.core.packet import Packet, pack_chunks
from repro.core.reassemble import coalesce
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec, build_chunk_path

from tests.helpers import make_chunk


def _deliver_list(loop):
    frames = []

    def deliver(frame):
        frames.append((loop.now, frame))

    return frames, deliver


class TestPaths:
    def test_single_hop(self):
        loop = EventLoop()
        frames, deliver = _deliver_list(loop)
        path = build_chunk_path(loop, [HopSpec(mtu=1500)], deliver)
        chunk = make_chunk(units=8)
        for packet in pack_chunks([chunk], 1500):
            path.send(packet.encode())
        path.run()
        assert len(frames) == 1

    def test_shrinking_mtus_fragment_in_network(self):
        """Large -> medium -> small MTU: routers split chunks en route
        and the receiver still reassembles in one step."""
        loop = EventLoop()
        frames, deliver = _deliver_list(loop)
        hops = [HopSpec(mtu=4096), HopSpec(mtu=1024), HopSpec(mtu=256)]
        path = build_chunk_path(loop, hops, deliver)
        chunk = make_chunk(units=400, t_st=True)
        for packet in pack_chunks([chunk], 4096):
            path.send(packet.encode())
        path.run()
        assert len(frames) > 1
        chunks = [c for _, f in frames for c in Packet.decode(f).chunks]
        assert coalesce(chunks) == [chunk]

    def test_growing_mtus_with_reassembly_mode(self):
        loop = EventLoop()
        frames, deliver = _deliver_list(loop)
        hops = [HopSpec(mtu=256), HopSpec(mtu=4096)]
        path = build_chunk_path(
            loop, hops, deliver, mode="reassemble", batch_window=0.01
        )
        chunk = make_chunk(units=200, t_st=True)
        for packet in pack_chunks([chunk], 256):
            path.send(packet.encode())
        path.run()
        chunks = [c for _, f in frames for c in Packet.decode(f).chunks]
        assert coalesce(chunks) == [chunk]
        # Far fewer envelopes on the big-MTU leg than entered.
        assert len(frames) < len(pack_chunks([chunk], 256))

    def test_lossy_hop_drops_frames(self):
        loop = EventLoop()
        frames, deliver = _deliver_list(loop)
        hops = [HopSpec(mtu=512, loss_rate=0.5)]
        path = build_chunk_path(loop, hops, deliver, seed=11)
        chunk = make_chunk(units=500)
        for packet in pack_chunks([chunk], 512):
            path.send(packet.encode())
        path.run()
        sent = len(pack_chunks([chunk], 512))
        assert 0 < len(frames) < sent

    def test_empty_hop_list_rejected(self):
        with pytest.raises(ValueError):
            build_chunk_path(EventLoop(), [], lambda f: None)

    def test_first_mtu_property(self):
        loop = EventLoop()
        path = build_chunk_path(
            loop, [HopSpec(mtu=1234), HopSpec(mtu=99)], lambda f: None
        )
        assert path.first_mtu == 1234

    def test_latency_accumulates_over_hops(self):
        results = {}
        for hops in (1, 3):
            loop = EventLoop()
            frames, deliver = _deliver_list(loop)
            specs = [HopSpec(mtu=1500, delay=0.01)] * hops
            path = build_chunk_path(loop, specs, deliver)
            for packet in pack_chunks([make_chunk(units=4)], 1500):
                path.send(packet.encode())
            path.run()
            results[hops] = frames[0][0]
        assert results[3] > results[1]
