"""Unit tests for the XTP and AAL baselines."""

import pytest

from repro.paper.aal import (
    Aal34Reassembler,
    Aal5Reassembler,
    SegmentType,
    aal34_segment,
    aal5_segment,
)
from repro.paper.xtp import (
    XTP_HEADER_BYTES,
    XTP_TRAILER_BYTES,
    SuperPacket,
    XtpPdu,
    packetize,
    repacketize,
)
from tests.helpers import deterministic_bytes as _payload


class TestXtpPdu:
    def test_encode_decode_roundtrip(self):
        pdu = XtpPdu(key=7, seq=1000, payload=b"hello", end_of_message=True)
        assert XtpPdu.decode(pdu.encode()) == pdu

    def test_corruption_detected(self):
        blob = bytearray(XtpPdu(1, 0, b"payload bytes").encode())
        blob[XTP_HEADER_BYTES + 2] ^= 0x40
        with pytest.raises(ValueError):
            XtpPdu.decode(bytes(blob))

    def test_wire_bytes(self):
        pdu = XtpPdu(1, 0, b"x" * 10)
        assert pdu.wire_bytes == XTP_HEADER_BYTES + 10 + XTP_TRAILER_BYTES
        assert len(pdu.encode()) == pdu.wire_bytes


class TestPacketize:
    def test_every_packet_fits_mtu(self):
        for pdu in packetize(1, _payload(10_000), mtu=576):
            assert pdu.wire_bytes <= 576

    def test_stream_recoverable(self):
        stream = _payload(5_000)
        pdus = packetize(1, stream, mtu=300)
        assert b"".join(p.payload for p in pdus) == stream
        assert pdus[-1].end_of_message
        assert not any(p.end_of_message for p in pdus[:-1])

    def test_seq_matches_offsets(self):
        pdus = packetize(1, _payload(1000), mtu=300, start_seq=500)
        offset = 500
        for pdu in pdus:
            assert pdu.seq == offset
            offset += len(pdu.payload)

    def test_overhead_in_every_packet(self):
        """The paper's complaint: full PDU overhead per packet."""
        pdus = packetize(1, _payload(10_000), mtu=200)
        overhead = len(pdus) * (XTP_HEADER_BYTES + XTP_TRAILER_BYTES)
        assert overhead > 10_000 * 0.25  # >25% overhead at small MTU

    def test_mtu_below_header_rejected(self):
        with pytest.raises(ValueError):
            packetize(1, b"x", mtu=XTP_HEADER_BYTES)


class TestRepacketize:
    def test_requires_recutting(self):
        pdus = packetize(1, _payload(3_000), mtu=1500)
        smaller = repacketize(pdus, mtu=300)
        assert len(smaller) > len(pdus)
        assert b"".join(p.payload for p in smaller) == b"".join(
            p.payload for p in pdus
        )

    def test_eom_preserved_only_at_stream_end(self):
        pdus = packetize(1, _payload(3_000), mtu=1500)
        smaller = repacketize(pdus, mtu=300)
        assert smaller[-1].end_of_message
        assert sum(1 for p in smaller if p.end_of_message) == 1

    def test_fitting_pdus_untouched(self):
        pdus = packetize(1, _payload(500), mtu=300)
        assert repacketize(pdus, mtu=1500) == pdus


class TestSuperPacket:
    def test_roundtrip(self):
        pdus = packetize(1, _payload(500), mtu=200)
        sp = SuperPacket(tuple(pdus))
        assert SuperPacket.decode(sp.encode()).pdus == tuple(pdus)

    def test_pack_respects_mtu(self):
        pdus = packetize(1, _payload(4_000), mtu=200)
        packets = SuperPacket.pack(pdus, mtu=1000)
        for packet in packets:
            assert packet.wire_bytes <= 1000
        got = [p for packet in packets for p in packet.pdus]
        assert got == pdus

    def test_distinct_format(self):
        """SUPER packets don't parse as regular XTP PDUs — the format
        duality chunks avoid."""
        pdus = packetize(1, _payload(100), mtu=200)
        blob = SuperPacket(tuple(pdus)).encode()
        with pytest.raises(ValueError):
            XtpPdu.decode(blob)


class TestAal5:
    def test_roundtrip_in_order(self):
        frame = _payload(1000)
        reasm = Aal5Reassembler()
        out = [reasm.add_cell(c) for c in aal5_segment(frame)]
        delivered = [o for o in out if o is not None]
        assert delivered == [frame]
        assert reasm.frames_ok == 1

    def test_cells_are_48_bytes(self):
        for cell in aal5_segment(_payload(333)):
            assert len(cell.payload) == 48

    def test_only_last_cell_flagged(self):
        cells = aal5_segment(_payload(300))
        assert [c.end_of_frame for c in cells].count(True) == 1
        assert cells[-1].end_of_frame

    def test_misorder_breaks_aal5(self):
        """One framing bit is not enough on a misordering channel."""
        frame = _payload(400)
        cells = aal5_segment(frame)
        cells[0], cells[1] = cells[1], cells[0]
        reasm = Aal5Reassembler()
        out = [reasm.add_cell(c) for c in cells]
        assert all(o is None for o in out)
        assert reasm.frames_bad_crc == 1

    def test_lost_end_cell_merges_frames(self):
        """Losing the end-flag cell silently concatenates two frames;
        the CRC is the only line of defence."""
        a_cells = aal5_segment(_payload(200, seed=1))
        b_cells = aal5_segment(_payload(200, seed=2))
        reasm = Aal5Reassembler()
        for cell in a_cells[:-1] + b_cells:
            result = reasm.add_cell(cell)
        assert reasm.frames_bad_crc == 1
        assert reasm.frames_ok == 0

    def test_back_to_back_frames(self):
        reasm = Aal5Reassembler()
        frames = [_payload(100, seed=s) for s in range(3)]
        delivered = []
        for frame in frames:
            for cell in aal5_segment(frame):
                out = reasm.add_cell(cell)
                if out is not None:
                    delivered.append(out)
        assert delivered == frames


class TestAal34:
    def test_roundtrip(self):
        frame = _payload(500)
        reasm = Aal34Reassembler()
        delivered = [
            out for cell in aal34_segment(5, frame) for out in [reasm.add_cell(cell)] if out
        ]
        assert len(delivered) == 1
        assert delivered[0][: len(frame)] == frame  # padding follows

    def test_segment_types(self):
        cells = aal34_segment(5, _payload(200))
        assert cells[0].segment_type is SegmentType.BOM
        assert cells[-1].segment_type is SegmentType.EOM
        assert all(c.segment_type is SegmentType.COM for c in cells[1:-1])

    def test_single_segment_message(self):
        cells = aal34_segment(5, _payload(30))
        assert len(cells) == 1
        assert cells[0].segment_type is SegmentType.SSM

    def test_mid_interleaving_supported(self):
        """The MID (the paper's C.ID analogue) separates streams."""
        fa = aal34_segment(1, _payload(200, seed=1))
        fb = aal34_segment(2, _payload(200, seed=2))
        mixed = [c for pair in zip(fa, fb) for c in pair]
        reasm = Aal34Reassembler()
        delivered = [out for c in mixed for out in [reasm.add_cell(c)] if out]
        assert len(delivered) == 2
        assert reasm.frames_ok == 2

    def test_sn_discontinuity_discards_frame(self):
        cells = aal34_segment(1, _payload(400))
        del cells[2]  # lose a COM cell: SN slips
        reasm = Aal34Reassembler()
        for cell in cells:
            reasm.add_cell(cell)
        assert reasm.frames_discarded >= 1
        assert reasm.frames_ok == 0

    def test_orphan_com_discarded(self):
        cells = aal34_segment(1, _payload(200))
        reasm = Aal34Reassembler()
        reasm.add_cell(cells[1])  # COM without BOM
        assert reasm.frames_discarded == 1
