"""Unit tests for the in-order transport baseline and the Appendix B matrix."""

import pytest

from repro.paper.framing_info import FIELDS, PROTOCOLS, Presence, matrix_rows
from repro.paper.inorder import InOrderReceiver, Segment, segment_stream
from tests.helpers import deterministic_bytes as _payload


def _receiver():
    delivered = []

    def deliver(seq, payload):
        delivered.append((seq, payload))

    return delivered, InOrderReceiver(deliver=deliver)


class TestSegment:
    def test_roundtrip(self):
        segment = Segment(1234, b"stream bytes")
        assert Segment.decode(segment.encode()) == segment

    def test_crc_protects(self):
        blob = bytearray(Segment(0, b"stream bytes").encode())
        blob[20] ^= 1
        with pytest.raises(ValueError):
            Segment.decode(bytes(blob))

    def test_segment_stream_covers_everything(self):
        stream = _payload(1000)
        segments = segment_stream(stream, 256)
        assert b"".join(s.payload for s in segments) == stream
        assert [s.seq for s in segments] == [0, 256, 512, 768]


class TestInOrderReceiver:
    def test_in_order_passthrough(self):
        delivered, receiver = _receiver()
        for segment in segment_stream(_payload(300), 100):
            receiver.receive(segment)
        assert len(delivered) == 3
        assert receiver.stats.peak_buffer_bytes == 0
        # Every byte touched exactly once.
        assert receiver.stats.data_touches == 300

    def test_out_of_order_buffered_and_drained(self):
        stream = _payload(300)
        s = segment_stream(stream, 100)
        delivered, receiver = _receiver()
        receiver.receive(s[0], now=0.0)
        receiver.receive(s[2], now=1.0)  # gap: buffered
        assert receiver.buffered_bytes == 100
        receiver.receive(s[1], now=2.0)  # fills the gap, drains
        assert [seq for seq, _ in delivered] == [0, 100, 200]
        assert b"".join(p for _, p in delivered) == stream

    def test_disordered_bytes_touched_twice(self):
        s = segment_stream(_payload(200), 100)
        delivered, receiver = _receiver()
        receiver.receive(s[1])
        receiver.receive(s[0])
        # 100 in-order bytes x1, 100 buffered bytes x(1 entry + 2 drain).
        assert receiver.stats.data_touches == 100 * 1 + 100 * 3

    def test_buffer_residence_time_tracked(self):
        s = segment_stream(_payload(200), 100)
        delivered, receiver = _receiver()
        receiver.receive(s[1], now=1.0)
        receiver.receive(s[0], now=4.0)
        assert receiver.stats.buffered_byte_seconds == pytest.approx(100 * 3.0)

    def test_duplicates_dropped(self):
        s = segment_stream(_payload(200), 100)
        delivered, receiver = _receiver()
        receiver.receive(s[0])
        receiver.receive(s[0])
        receiver.receive(s[1])
        receiver.receive(s[1])
        assert len(delivered) == 2
        assert receiver.stats.duplicate_segments == 2

    def test_peak_buffer_grows_with_disorder(self):
        segments = segment_stream(_payload(1000), 100)
        delivered, receiver = _receiver()
        for segment in segments[1:]:
            receiver.receive(segment)
        assert receiver.stats.peak_buffer_bytes == 900
        receiver.receive(segments[0])
        assert receiver.stats.bytes_delivered == 1000


class TestFramingMatrix:
    def test_chunks_row_is_fully_explicit(self):
        chunks_row = next(p for p in PROTOCOLS if p.name == "Chunks")
        assert chunks_row.explicit_count() == len(FIELDS)

    def test_no_other_protocol_is_fully_explicit(self):
        for protocol in PROTOCOLS:
            if protocol.name != "Chunks":
                assert protocol.explicit_count() < len(FIELDS)

    def test_aal5_framing_is_one_explicit_bit(self):
        aal5 = next(p for p in PROTOCOLS if p.name == "AAL5")
        assert aal5.presence("T.ST") is Presence.EXPLICIT
        assert aal5.presence("T.SN") is Presence.IMPLICIT
        assert not aal5.tolerates_misorder

    def test_ip_has_single_framing_level(self):
        ip = next(p for p in PROTOCOLS if p.name == "IP")
        assert ip.presence("T.ID") is Presence.EXPLICIT
        assert ip.presence("C.ID") is Presence.ABSENT
        assert ip.presence("X.ID") is Presence.ABSENT

    def test_misorder_tolerant_protocols_have_explicit_framing_somewhere(self):
        """Appendix B's pattern: protocols built for misordering channels
        carry at least one explicit (ID, SN) pair."""
        for protocol in PROTOCOLS:
            if protocol.tolerates_misorder and protocol.name != "Chunks":
                explicit_pairs = [
                    lvl
                    for lvl in ("C", "T", "X")
                    if protocol.presence(f"{lvl}.SN") is Presence.EXPLICIT
                ]
                assert explicit_pairs, protocol.name

    def test_matrix_rows_shape(self):
        rows = matrix_rows()
        assert rows[0][0] == "protocol"
        assert len(rows) == len(PROTOCOLS) + 1
        assert all(len(row) == len(FIELDS) + 2 for row in rows)
