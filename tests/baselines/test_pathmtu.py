"""Unit tests for path-MTU discovery and the black-hole failure mode."""

from dataclasses import dataclass, field

from repro.netsim.events import EventLoop
from repro.paper.pathmtu import PathMtuProber, PmtuSender


@dataclass
class FakePath:
    """A path with a (mutable) MTU that silently drops oversize frames."""

    loop: EventLoop
    mtu: int
    rtt: float = 0.02
    delivered_bytes: int = field(default=0, init=False)

    def send_probe(self, size, on_echo):
        if size <= self.mtu:
            self.loop.schedule(self.rtt, on_echo)

    def transmit(self, packet, on_ack):
        if len(packet) <= self.mtu:
            self.delivered_bytes += len(packet)
            self.loop.schedule(self.rtt, on_ack)


class TestProber:
    def _discover(self, mtu, low=68, high=65535):
        loop = EventLoop()
        path = FakePath(loop, mtu)
        prober = PathMtuProber(loop, path.send_probe, low=low, high=high)
        result = {}
        prober.discover(lambda m: result.update(mtu=m))
        loop.run()
        return result["mtu"], prober

    def test_finds_exact_mtu(self):
        for mtu in (296, 576, 1500, 4352, 9180):
            found, _ = self._discover(mtu)
            assert found == mtu

    def test_mtu_at_bounds(self):
        assert self._discover(68)[0] == 68
        assert self._discover(65535)[0] == 65535

    def test_probe_count_is_logarithmic(self):
        _, prober = self._discover(1500)
        assert prober.probes_sent <= 17  # log2(65468) + slack

    def test_lost_probes_cost_timeouts(self):
        loop = EventLoop()
        path = FakePath(loop, 296)
        prober = PathMtuProber(loop, path.send_probe, probe_timeout=0.2)
        done_at = {}
        prober.discover(lambda m: done_at.update(t=loop.now))
        loop.run()
        # Every failed probe burns a full timeout; discovery is slow.
        assert prober.probes_lost >= 8
        assert done_at["t"] >= prober.probes_lost * 0.2


class TestPmtuSenderBlackHole:
    def test_clean_transfer(self):
        loop = EventLoop()
        path = FakePath(loop, 1500)
        prober = PathMtuProber(loop, path.send_probe)
        sender = PmtuSender(loop, prober, path.transmit)
        done = {}
        sender.start(b"x" * 50_000, lambda: done.update(ok=True))
        loop.run()
        assert done.get("ok")
        assert sender.path_mtu == 1500
        assert sender.packets_blackholed == 0
        assert sender.bytes_delivered == 50_000

    def test_route_change_black_hole_and_recovery(self):
        """The §3 scenario: a route change lowers the path MTU and the
        never-fragment sender stalls until it re-probes."""
        loop = EventLoop()
        path = FakePath(loop, 1500)
        prober = PathMtuProber(loop, path.send_probe)
        sender = PmtuSender(loop, prober, path.transmit)
        done = {}
        sender.start(b"y" * 500_000, lambda: done.update(ok=True))
        # Drop the route MTU mid-transfer (well after discovery, which
        # takes ~2.5 s of probe timeouts on this path).
        loop.at(4.0, lambda: setattr(path, "mtu", 296))
        loop.run()
        assert done.get("ok")
        assert sender.packets_blackholed >= 1
        assert sender.reprobes >= 1
        assert sender.stall_time > 0
        assert sender.path_mtu == 296

    def test_chunks_need_none_of_this(self):
        """Contrast: the chunk path fragments in the network, so an MTU
        drop costs nothing but smaller envelopes — no discovery, no
        stall, no black hole."""
        from repro.core.packet import pack_chunks
        from repro.netsim.topology import HopSpec, build_chunk_path
        from repro.transport.connection import ConnectionConfig
        from repro.transport.receiver import ChunkTransportReceiver
        from repro.transport.sender import ChunkTransportSender

        loop = EventLoop()
        receiver = ChunkTransportReceiver()
        path = build_chunk_path(
            loop, [HopSpec(mtu=4096), HopSpec(mtu=296)],
            lambda frame: receiver.receive_packet(frame),
        )
        sender = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=256))
        payload = bytes(16_384)
        chunks = [sender.establishment_chunk()] + sender.close(payload)
        for packet in pack_chunks(chunks, 4096):
            path.send(packet.encode())
        path.run()
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0
