"""Multi-connection packets and piggybacked mixtures (Appendix A).

"Previously we discussed packets that carry multiple chunks from a
single connection, and this idea can be extended to packets that carry
chunks from multiple connections.  Data, signaling information, and
acknowledgments can be combined in any combination."
"""

from __future__ import annotations

import random

from repro.core.packet import Packet, pack_chunks
from repro.core.types import ChunkType
from repro.transport.acks import build_ack_chunk
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.helpers import make_payload


def _connection_traffic(connection_id, seed, frames=3, tpdu_units=16):
    sender = ChunkTransportSender(
        ConnectionConfig(connection_id=connection_id, tpdu_units=tpdu_units)
    )
    chunks = [sender.establishment_chunk()]
    payload = b""
    for index in range(frames):
        data = make_payload(tpdu_units, seed=seed * 100 + index)
        payload += data
        if index == frames - 1:
            chunks += sender.close(data, frame_id=index)
        else:
            chunks += sender.send_frame(data, frame_id=index)
    return chunks, payload


class TestMultiConnectionPackets:
    def test_interleaved_connections_share_packets(self):
        chunks_a, payload_a = _connection_traffic(1, seed=1)
        chunks_b, payload_b = _connection_traffic(2, seed=2)
        # Interleave chunk-by-chunk so packets genuinely mix connections.
        mixed = [c for pair in zip(chunks_a, chunks_b) for c in pair]
        mixed += chunks_a[len(chunks_b):] + chunks_b[len(chunks_a):]
        packets = pack_chunks(mixed, 1500)
        assert any(
            len({c.c.ident for c in p.chunks if c.is_data}) > 1 for p in packets
        ), "no packet actually mixed connections"

        receivers = {1: ChunkTransportReceiver(), 2: ChunkTransportReceiver()}
        for packet in packets:
            decoded = Packet.decode(packet.encode())
            for chunk in decoded.chunks:
                receivers[chunk.c.ident].receive_chunk(chunk)
        assert receivers[1].stream_bytes() == payload_a
        assert receivers[2].stream_bytes() == payload_b
        assert receivers[1].corrupted_tpdus() == 0
        assert receivers[2].corrupted_tpdus() == 0

    def test_shuffled_multiconnection_delivery(self):
        chunks_a, payload_a = _connection_traffic(1, seed=3)
        chunks_b, payload_b = _connection_traffic(2, seed=4)
        packets = pack_chunks(chunks_a + chunks_b, 256)
        random.Random(6).shuffle(packets)
        receivers = {1: ChunkTransportReceiver(), 2: ChunkTransportReceiver()}
        for packet in packets:
            for chunk in Packet.decode(packet.encode()).chunks:
                receivers[chunk.c.ident].receive_chunk(chunk)
        assert receivers[1].stream_bytes() == payload_a
        assert receivers[2].stream_bytes() == payload_b

    def test_data_signaling_and_acks_in_one_packet(self):
        """The full Appendix A mixture in one envelope."""
        sender = ChunkTransportSender(ConnectionConfig(connection_id=5, tpdu_units=8))
        chunks = [sender.establishment_chunk()]
        chunks += sender.send_frame(make_payload(8))
        chunks.append(build_ack_chunk(9, [3, 4]))  # acks for connection 9
        packets = pack_chunks(chunks, 4096)
        assert len(packets) == 1
        types = {c.type for c in Packet.decode(packets[0].encode()).chunks}
        assert types >= {
            ChunkType.SIGNALING,
            ChunkType.DATA,
            ChunkType.ERROR_DETECTION,
            ChunkType.ACK,
        }

    def test_same_tpdu_ids_different_connections_do_not_collide(self):
        """Both connections use T.ID 0; demux by C.ID keeps them apart
        (the non-multiplexed connection ID of [FELD 90])."""
        chunks_a, payload_a = _connection_traffic(1, seed=7, frames=1)
        chunks_b, payload_b = _connection_traffic(2, seed=8, frames=1)
        t_ids_a = {c.t.ident for c in chunks_a if c.is_data}
        t_ids_b = {c.t.ident for c in chunks_b if c.is_data}
        assert t_ids_a & t_ids_b  # genuinely colliding T.IDs
        receiver = {1: ChunkTransportReceiver(), 2: ChunkTransportReceiver()}
        for chunk in chunks_a + chunks_b:
            receiver[chunk.c.ident].receive_chunk(chunk)
        assert receiver[1].stream_bytes() == payload_a
        assert receiver[2].stream_bytes() == payload_b
