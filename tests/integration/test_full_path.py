"""Integration tests: transport over the simulated network.

These exercise the complete pipeline the paper describes: application
frames -> chunk framing -> per-TPDU WSC-2 -> packets -> links/routers
(fragmentation, multipath skew, loss, duplication) -> immediate-
processing receiver -> verified, correctly placed application data.
"""

import pytest

from repro.core.packet import pack_chunks
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec, build_chunk_path
from repro.paper.multipath import aurora_stripe
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.helpers import make_payload


def _make_traffic(frames=8, tpdu_units=64, connection_id=1):
    sender = ChunkTransportSender(
        ConnectionConfig(connection_id=connection_id, tpdu_units=tpdu_units)
    )
    chunks = [sender.establishment_chunk()]
    payload = b""
    for i in range(frames - 1):
        data = make_payload(tpdu_units // 2, seed=i)
        payload += data
        chunks += sender.send_frame(data, frame_id=i)
    tail = make_payload(tpdu_units // 2, seed=999)
    payload += tail
    chunks += sender.close(tail, frame_id=frames - 1)
    return sender, chunks, payload


class TestMultiHopFragmentingPath:
    def test_shrinking_mtu_path_delivers_verified_stream(self):
        loop = EventLoop()
        receiver = ChunkTransportReceiver()
        path = build_chunk_path(
            loop,
            [HopSpec(mtu=4096), HopSpec(mtu=576), HopSpec(mtu=256)],
            lambda frame: receiver.receive_packet(frame),
        )
        sender, chunks, payload = _make_traffic()
        for packet in pack_chunks(chunks, 4096):
            path.send(packet.encode())
        path.run()
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0
        assert receiver.pending_tpdus() == []
        assert receiver.closed

    @pytest.mark.parametrize("mode", ["repack", "one-per-packet", "reassemble"])
    def test_growing_mtu_path_all_modes(self, mode):
        loop = EventLoop()
        receiver = ChunkTransportReceiver()
        path = build_chunk_path(
            loop,
            [HopSpec(mtu=256), HopSpec(mtu=4096)],
            lambda frame: receiver.receive_packet(frame),
            mode=mode,
            batch_window=0.001,
        )
        sender, chunks, payload = _make_traffic()
        for packet in pack_chunks(chunks, 256):
            path.send(packet.encode())
        path.run()
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0


class TestMultipathSkew:
    def test_disordered_arrival_still_verifies(self):
        """The Section 1 scenario end to end: 8 striped paths with skew
        disorder packets; the receiver never reorders yet delivers a
        correct, fully verified stream."""
        loop = EventLoop()
        receiver = ChunkTransportReceiver()
        arrival_indices = []
        sent = []

        def deliver(frame):
            arrival_indices.append(sent.index(frame))
            receiver.receive_packet(frame)

        channel = aurora_stripe(loop, deliver, paths=8, skew=0.0008, seed=3)
        sender, chunks, payload = _make_traffic(frames=24, tpdu_units=32)
        for packet in pack_chunks(chunks, 256):
            frame = packet.encode()
            sent.append(frame)
            channel.send(frame)
        loop.run()
        # The network genuinely disordered the packets...
        assert arrival_indices != sorted(arrival_indices)
        # ...and the receiver did not care.
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0
        assert receiver.pending_tpdus() == []


class TestLossAndRecoveryOverNetwork:
    def test_recovery_over_lossy_path(self):
        loop = EventLoop()
        receiver = ChunkTransportReceiver()
        sender, chunks, payload = _make_traffic(frames=6, tpdu_units=32)

        acked = []

        def deliver(frame):
            events = receiver.receive_packet(frame)
            for verdict in events.verdicts:
                if verdict.ok:
                    sender.acknowledge(verdict.t_id)
                    acked.append(verdict.t_id)

        path = build_chunk_path(
            loop, [HopSpec(mtu=512, loss_rate=0.25)], deliver, seed=21
        )
        for packet in pack_chunks(chunks, 512):
            path.send(packet.encode())
        path.run()
        rounds = 0
        while sender.outstanding_tpdus() and rounds < 40:
            rounds += 1
            for t_id in list(sender.outstanding_tpdus()):
                for packet in pack_chunks(sender.retransmit(t_id), 512):
                    path.send(packet.encode())
            path.run()
        assert sender.outstanding_tpdus() == []
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0

    def test_duplicating_path_harmless(self):
        loop = EventLoop()
        receiver = ChunkTransportReceiver()
        path = build_chunk_path(
            loop,
            [HopSpec(mtu=512, dup_rate=0.4)],
            lambda frame: receiver.receive_packet(frame),
            seed=8,
        )
        sender, chunks, payload = _make_traffic(frames=6, tpdu_units=32)
        for packet in pack_chunks(chunks, 512):
            path.send(packet.encode())
        path.run()
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0


class TestCorruptionOverNetwork:
    def test_corrupting_path_never_accepts_bad_tpdus(self):
        """Random single-bit corruption on the path: a TPDU verdicted OK
        must carry its exact original bytes — corruption may reduce the
        number of verified TPDUs, never their integrity."""
        tpdu_units = 32
        unit_bytes = 4
        verified: list[int] = []
        loop = EventLoop()
        receiver = ChunkTransportReceiver()

        def deliver(frame):
            events = receiver.receive_packet(frame)
            verified.extend(v.t_id for v in events.verdicts if v.ok)

        path = build_chunk_path(
            loop, [HopSpec(mtu=512, corrupt_rate=0.3)], deliver, seed=5
        )
        sender, chunks, payload = _make_traffic(frames=10, tpdu_units=tpdu_units)
        for packet in pack_chunks(chunks, 512):
            path.send(packet.encode())
        path.run()

        assert verified, "some TPDUs should survive 30% packet corruption"
        stream = receiver.stream_bytes()
        tpdu_bytes = tpdu_units * unit_bytes
        for t_id in verified:
            start = t_id * tpdu_bytes
            end = min(start + tpdu_bytes, len(payload))
            assert stream[start:end] == payload[start:end], f"TPDU {t_id}"

    def test_corruption_campaign_statistics(self):
        """Across many corrupted runs, no verified TPDU is ever wrong
        and detection reasons stay within the Table 1 vocabulary."""
        reasons = set()
        for seed in range(8):
            loop = EventLoop()
            receiver = ChunkTransportReceiver()
            bad = []

            def deliver(frame):
                events = receiver.receive_packet(frame)
                bad.extend(v for v in events.verdicts if not v.ok)

            path = build_chunk_path(
                loop, [HopSpec(mtu=384, corrupt_rate=0.5)], deliver, seed=seed
            )
            sender, chunks, payload = _make_traffic(frames=6, tpdu_units=16)
            for packet in pack_chunks(chunks, 384):
                path.send(packet.encode())
            path.run()
            bad.extend(receiver.verifier.abort_pending())
            reasons.update(v.reason for v in bad)
        assert reasons <= {
            "code-mismatch",
            "reassembly-error",
            "consistency-check",
        }
        assert reasons  # 50% corruption must catch something
