"""Layering check: chunk packets ride AAL5 cells as a link adaptation.

The AURORA scenario carries packets over ATM; AAL5 segments each chunk
packet into 48-byte cells and reassembles it at the link exit.  Chunks
neither know nor care — the cell layer is just another envelope — and
if the cell layer misorders (which real ATM does not, but a faulty
switch might), its CRC rejects the frame and the chunk transport's
retransmission absorbs the loss.
"""

from __future__ import annotations

import random

from repro.core.packet import pack_chunks
from repro.paper.aal import Aal5Reassembler, aal5_segment
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.conftest import make_payload


def _traffic(frames=4, tpdu_units=32):
    sender = ChunkTransportSender(ConnectionConfig(connection_id=6, tpdu_units=tpdu_units))
    chunks = [sender.establishment_chunk()]
    payload = b""
    for index in range(frames):
        data = make_payload(tpdu_units, seed=index)
        payload += data
        last = index == frames - 1
        if last:
            chunks += sender.close(data, frame_id=index)
        else:
            chunks += sender.send_frame(data, frame_id=index)
    return sender, chunks, payload


class TestChunksOverAal5:
    def test_clean_cell_path(self):
        sender, chunks, payload = _traffic()
        receiver = ChunkTransportReceiver()
        reasm = Aal5Reassembler()
        for packet in pack_chunks(chunks, 1500):
            for cell in aal5_segment(packet.encode()):
                frame = reasm.add_cell(cell)
                if frame is not None:
                    receiver.receive_packet(frame)
        assert reasm.frames_ok == len(pack_chunks(chunks, 1500))
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0

    def test_cell_misorder_caught_by_aal5_crc_not_by_chunks(self):
        """A cell swap corrupts exactly one AAL5 frame; the chunk layer
        sees a clean loss (missing packet), never corrupt data."""
        sender, chunks, payload = _traffic()
        receiver = ChunkTransportReceiver()
        reasm = Aal5Reassembler()
        packets = pack_chunks(chunks, 296)
        assert len(packets) >= 3
        for index, packet in enumerate(packets):
            cells = aal5_segment(packet.encode())
            if index == 1 and len(cells) >= 2:
                cells[0], cells[1] = cells[1], cells[0]
            for cell in cells:
                frame = reasm.add_cell(cell)
                if frame is not None:
                    receiver.receive_packet(frame)
        assert reasm.frames_bad_crc == 1
        assert receiver.corrupted_tpdus() == 0  # nothing *wrong* got through
        # The damaged packet's TPDU is simply incomplete (normal loss).
        assert receiver.pending_tpdus() or receiver.stream.missing()

    def test_packet_boundaries_align_with_cell_frames(self):
        """AAL5 padding round-trips: the delivered frame is exactly the
        encoded packet, whatever its length mod 48."""
        sender, chunks, payload = _traffic(frames=1, tpdu_units=7)
        for mtu in (96, 171, 533, 1500):
            reasm = Aal5Reassembler()
            for packet in pack_chunks(chunks, mtu):
                blob = packet.encode()
                delivered = None
                for cell in aal5_segment(blob):
                    out = reasm.add_cell(cell)
                    if out is not None:
                        delivered = out
                assert delivered == blob

    def test_loss_recovery_through_the_cell_layer(self):
        """Drop whole cells at random; AAL5 CRC turns them into packet
        losses; sender-driven retransmission completes the transfer."""
        rng = random.Random(8)
        sender, chunks, payload = _traffic()
        receiver = ChunkTransportReceiver()

        def send_via_cells(wire_chunks):
            reasm = Aal5Reassembler()
            for packet in pack_chunks(wire_chunks, 1500):
                for cell in aal5_segment(packet.encode()):
                    if rng.random() < 0.03:
                        continue  # cell lost
                    frame = reasm.add_cell(cell)
                    if frame is not None:
                        events = receiver.receive_packet(frame)
                        for verdict in events.verdicts:
                            if verdict.ok:
                                sender.acknowledge(verdict.t_id)

        send_via_cells(chunks)
        rounds = 0
        while sender.outstanding_tpdus() and rounds < 40:
            rounds += 1
            for t_id in list(sender.outstanding_tpdus()):
                send_via_cells(sender.retransmit(t_id))
        assert sender.outstanding_tpdus() == []
        assert receiver.stream_bytes() == payload
        assert receiver.corrupted_tpdus() == 0
