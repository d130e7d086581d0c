"""Unit tests for the bulk-transfer and video applications."""

import hashlib
import random

from repro.core.packet import pack_chunks
from repro.app.bulk import BulkTransferApp
from repro.app.video import VideoPlayoutApp
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.conftest import make_payload


def _bulk_setup(object_bytes=1024, tpdu_units=32, mtu=256):
    sender = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=tpdu_units))
    payload = make_payload(object_bytes // 4, seed=42)
    chunks = [sender.establishment_chunk()] + sender.close(payload)
    packets = pack_chunks(chunks, mtu)
    app = BulkTransferApp(
        receiver=ChunkTransportReceiver(), expected_bytes=len(payload)
    )
    return app, packets, payload


class TestBulkTransfer:
    def test_in_order_transfer(self):
        app, packets, payload = _bulk_setup()
        for packet in packets:
            app.on_packet(packet.encode())
        assert app.is_complete()
        assert app.data() == payload
        assert app.sha256() == hashlib.sha256(payload).hexdigest()

    def test_disordered_transfer_identical_result(self):
        app, packets, payload = _bulk_setup()
        random.Random(3).shuffle(packets)
        for packet in packets:
            app.on_packet(packet.encode())
        assert app.is_complete()
        assert app.data() == payload

    def test_progress_monotonic(self):
        app, packets, _ = _bulk_setup()
        random.Random(5).shuffle(packets)
        last = 0.0
        for packet in packets:
            app.on_packet(packet.encode())
            assert app.progress() >= last
            last = app.progress()
        assert last == 1.0

    def test_verified_tpdus_recorded(self):
        app, packets, _ = _bulk_setup()
        for packet in packets:
            app.on_packet(packet.encode())
        assert len(app.verified_tpdu_ids) == app.receiver.verified_tpdus()
        assert app.verified_tpdu_ids

    def test_incomplete_without_all_packets(self):
        app, packets, _ = _bulk_setup()
        dropped = next(
            i for i, p in enumerate(packets) if any(c.is_data for c in p.chunks)
        )
        for index, packet in enumerate(packets):
            if index != dropped:
                app.on_packet(packet.encode())
        assert not app.is_complete()
        assert app.progress() < 1.0


def _video_setup(frames=6, frame_units=30, tpdu_units=45, mtu=256):
    sender = ChunkTransportSender(ConnectionConfig(connection_id=2, tpdu_units=tpdu_units))
    frame_data = {}
    chunks = [sender.establishment_chunk()]
    for frame_id in range(frames):
        data = make_payload(frame_units, seed=frame_id)
        frame_data[frame_id] = data
        if frame_id == frames - 1:
            chunks += sender.close(data, frame_id=frame_id)
        else:
            chunks += sender.send_frame(data, frame_id=frame_id)
    packets = pack_chunks(chunks, mtu)
    app = VideoPlayoutApp(
        receiver=ChunkTransportReceiver(), frame_interval=0.01, start_delay=1.0
    )
    return app, packets, frame_data


class TestVideoPlayout:
    def test_all_frames_play_in_order(self):
        app, packets, frame_data = _video_setup()
        for index, packet in enumerate(packets):
            app.on_packet(index * 0.001, packet.encode())
        assert app.frames_played == len(frame_data)
        assert [r.frame_id for r in app.records] == sorted(frame_data)

    def test_frame_pixels_correct_under_disorder(self):
        app, packets, frame_data = _video_setup()
        random.Random(9).shuffle(packets)
        for index, packet in enumerate(packets):
            app.on_packet(index * 0.001, packet.encode())
        assert app.frames_played == len(frame_data)
        for frame_id, data in frame_data.items():
            assert app.frame_bytes(frame_id) == data

    def test_playout_order_is_frame_order_despite_disorder(self):
        app, packets, _ = _video_setup()
        random.Random(9).shuffle(packets)
        for index, packet in enumerate(packets):
            app.on_packet(index * 0.001, packet.encode())
        assert [r.frame_id for r in app.records] == sorted(
            r.frame_id for r in app.records
        )

    def test_on_time_accounting(self):
        app, packets, _ = _video_setup()
        for index, packet in enumerate(packets):
            app.on_packet(index * 0.001, packet.encode())
        assert app.frames_late == 0  # generous start delay

    def test_late_frames_detected(self):
        app, packets, _ = _video_setup()
        app.start_delay = 0.0  # impossible deadline for all but frame 0
        for index, packet in enumerate(packets):
            app.on_packet(0.5 + index * 0.001, packet.encode())
        assert app.frames_late > 0

    def test_head_of_line_frame_blocks_playout(self):
        """Frames are presented in order: a missing early frame holds
        later completed frames in the queue."""
        app, packets, frame_data = _video_setup(mtu=200)
        # Drop every packet carrying frame 0 data.
        kept = []
        for packet in packets:
            if any(c.is_data and c.x.ident == 0 for c in packet.chunks):
                continue
            kept.append(packet)
        for index, packet in enumerate(kept):
            app.on_packet(index * 0.001, packet.encode())
        assert app.frames_played == 0
        assert app.receiver.frames.completed  # later frames are ready
