"""Unit tests for the chunk transport: connection, sender, receiver."""

import random

import pytest

from repro.core.errors import ChunkError
from repro.core.packet import pack_chunks
from repro.core.types import ChunkType
from repro.transport.connection import (
    ConnectionConfig,
    build_signaling_chunk,
    parse_signaling_chunk,
)
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.helpers import make_payload


class TestConnectionConfig:
    def test_signaling_roundtrip(self):
        config = ConnectionConfig(connection_id=77, unit_words=2, tpdu_units=128)
        chunk = build_signaling_chunk(config)
        assert chunk.type is ChunkType.SIGNALING
        assert parse_signaling_chunk(chunk) == config

    def test_defaults_roundtrip(self):
        config = ConnectionConfig(connection_id=1)
        assert parse_signaling_chunk(build_signaling_chunk(config)) == config

    def test_parse_rejects_data_chunk(self):
        from repro.core.errors import SignalingError
        from tests.helpers import make_chunk

        with pytest.raises(SignalingError):
            parse_signaling_chunk(make_chunk())

    def test_byte_accounting(self):
        config = ConnectionConfig(connection_id=1, unit_words=2, tpdu_units=10)
        assert config.unit_bytes == 8
        assert config.tpdu_bytes == 80


class TestSender:
    def _sender(self, tpdu_units=8, **kwargs):
        return ChunkTransportSender(
            ConnectionConfig(connection_id=3, tpdu_units=tpdu_units, **kwargs)
        )

    def test_frame_produces_data_chunks(self):
        sender = self._sender()
        chunks = sender.send_frame(make_payload(4))
        assert all(c.type is ChunkType.DATA for c in chunks)

    def test_ed_chunk_per_completed_tpdu(self):
        sender = self._sender(tpdu_units=8)
        chunks = sender.send_frame(make_payload(20))
        ed_chunks = [c for c in chunks if c.type is ChunkType.ERROR_DETECTION]
        assert len(ed_chunks) == 2  # units 0..7 and 8..15 completed
        assert sender.tpdus_sent == 2

    def test_ed_follows_its_tpdus_final_data(self):
        sender = self._sender(tpdu_units=8)
        chunks = sender.send_frame(make_payload(8))
        assert chunks[-1].type is ChunkType.ERROR_DETECTION
        assert chunks[-2].t.st
        assert chunks[-1].t.ident == chunks[-2].t.ident

    def test_close_sets_c_st_and_emits_ed(self):
        sender = self._sender(tpdu_units=100)
        chunks = sender.close(make_payload(5))
        data = [c for c in chunks if c.is_data]
        assert data[-1].c.st
        assert chunks[-1].type is ChunkType.ERROR_DETECTION

    def test_close_requires_payload(self):
        with pytest.raises(ChunkError):
            self._sender().close()

    def test_retransmit_reuses_identifiers(self):
        sender = self._sender(tpdu_units=8)
        original = sender.send_frame(make_payload(8))
        again = sender.retransmit(0)
        assert again == original

    def test_retransmit_unknown_tpdu(self):
        with pytest.raises(ChunkError):
            self._sender().retransmit(42)

    def test_acknowledge_trims_history(self):
        sender = self._sender(tpdu_units=4)
        sender.send_frame(make_payload(8))
        assert sender.outstanding_tpdus() == [0, 1]
        sender.acknowledge(0)
        assert sender.outstanding_tpdus() == [1]
        with pytest.raises(ChunkError):
            sender.retransmit(0)

    def test_history_limit(self):
        sender = ChunkTransportSender(
            ConnectionConfig(connection_id=3, tpdu_units=1), history_limit=3
        )
        sender.send_frame(make_payload(10))
        assert len(sender.outstanding_tpdus()) == 3

    def test_oversize_tpdu_rejected_before_any_state_moves(self):
        """A TPDU larger than the WSC-2 data budget is refused where it
        is configured — not inside send_frame, where C.SN would already
        have advanced and an ED-less TPDU been recorded."""
        with pytest.raises(ChunkError):
            self._sender(tpdu_units=20000)
        with pytest.raises(ChunkError):
            self._sender(tpdu_units=5000, unit_words=4)
        sender = self._sender(tpdu_units=8)
        sender.send_frame(make_payload(4))
        with pytest.raises(ChunkError):
            sender.set_tpdu_units(20000)
        assert sender.tpdu_units == 8
        assert sender.outstanding_tpdus() == [0]
        chunks = sender.send_frame(make_payload(4))
        assert chunks[-1].type is ChunkType.ERROR_DETECTION  # TPDU 0 closed at 8


class TestReceiver:
    def _pipe(self, mtu=1500, shuffle_seed=None, tpdu_units=8, frames=3):
        sender = ChunkTransportSender(
            ConnectionConfig(connection_id=3, tpdu_units=tpdu_units)
        )
        receiver = ChunkTransportReceiver()
        chunks = [sender.establishment_chunk()]
        payload = b""
        for i in range(frames - 1):
            data = make_payload(tpdu_units, seed=i)
            payload += data
            chunks += sender.send_frame(data, frame_id=i)
        tail = make_payload(tpdu_units, seed=99)
        payload += tail
        chunks += sender.close(tail, frame_id=frames - 1)
        packets = pack_chunks(chunks, mtu)
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(packets)
        return sender, receiver, packets, payload

    def test_in_order_delivery(self):
        _, receiver, packets, payload = self._pipe()
        for packet in packets:
            receiver.receive_packet(packet.encode())
        assert receiver.stream_bytes() == payload
        assert receiver.closed
        assert receiver.corrupted_tpdus() == 0

    def test_shuffled_delivery(self):
        _, receiver, packets, payload = self._pipe(mtu=128, shuffle_seed=8)
        for packet in packets:
            receiver.receive_packet(packet.encode())
        assert receiver.stream_bytes() == payload
        assert receiver.pending_tpdus() == []
        assert receiver.verified_tpdus() == 3

    def test_signaling_establishes_config(self):
        _, receiver, packets, _ = self._pipe()
        for packet in packets:
            receiver.receive_packet(packet.encode())
        assert receiver.config is not None
        assert receiver.config.connection_id == 3

    def test_frame_completion_events(self):
        _, receiver, packets, _ = self._pipe(frames=3)
        completed = []
        for packet in packets:
            events = receiver.receive_packet(packet.encode())
            completed += events.completed_frames
        assert sorted(completed) == [0, 1, 2]

    def test_garbage_packet_flagged(self):
        receiver = ChunkTransportReceiver()
        events = receiver.receive_packet(b"\x00\x01garbage")
        assert events.decode_failed

    def test_duplicate_packets_harmless(self):
        _, receiver, packets, payload = self._pipe(mtu=128)
        for packet in packets + packets:
            receiver.receive_packet(packet.encode())
        assert receiver.stream_bytes() == payload
        assert receiver.duplicate_chunks > 0
        assert receiver.corrupted_tpdus() == 0

    def test_partial_loss_leaves_pending_nack_list(self):
        _, receiver, packets, _ = self._pipe(mtu=128)
        # Drop a middle packet so at least one TPDU is partially heard.
        for packet in packets[: len(packets) // 2] + packets[len(packets) // 2 + 1 :]:
            receiver.receive_packet(packet.encode())
        assert receiver.pending_tpdus() or receiver.stream.missing()


class TestRetransmissionLoop:
    def test_loss_recovery_end_to_end(self):
        """Lossy delivery + ACK-driven retransmission converges, with
        retransmitted chunks reusing their original identifiers.  The
        sender retransmits every unacknowledged TPDU each round (a TPDU
        whose every packet was lost is invisible to the receiver, so
        recovery must be sender-driven)."""
        sender = ChunkTransportSender(ConnectionConfig(connection_id=4, tpdu_units=16))
        receiver = ChunkTransportReceiver()
        payload = b""
        chunks = []
        for i in range(6):
            data = make_payload(16, seed=i)
            payload += data
            chunks += sender.send_frame(data, frame_id=i)
        rng = random.Random(13)

        def lossy_deliver(wire_chunks):
            for packet in pack_chunks(wire_chunks, 256):
                if rng.random() > 0.35:  # 35% loss
                    events = receiver.receive_packet(packet.encode())
                    for verdict in events.verdicts:
                        if verdict.ok:
                            sender.acknowledge(verdict.t_id)  # the ACK path

        lossy_deliver(chunks)
        rounds = 0
        while sender.outstanding_tpdus() and rounds < 50:
            rounds += 1
            for t_id in list(sender.outstanding_tpdus()):
                lossy_deliver(sender.retransmit(t_id))
        assert sender.outstanding_tpdus() == []
        assert receiver.stream_bytes() == payload
        assert receiver.verified_tpdus() >= 6
        assert receiver.corrupted_tpdus() == 0


class TestPlacementGuards:
    def test_corrupted_c_sn_rejected_not_allocated(self):
        """A chunk whose C.SN implies a petabyte offset must be refused
        placement (and the TPDU fails verification) — found by fuzzing."""
        from dataclasses import replace as _replace

        sender = ChunkTransportSender(ConnectionConfig(connection_id=3, tpdu_units=8))
        receiver = ChunkTransportReceiver()
        chunks = sender.send_frame(make_payload(8))
        bad = chunks[0].with_tuples(c=_replace(chunks[0].c, sn=2**60))
        for packet in pack_chunks([bad] + chunks[1:], 1500):
            receiver.receive_packet(packet.encode())
        assert receiver.rejected_placements >= 1
        # Note: with the whole TPDU in ONE chunk, the (C.SN - T.SN)
        # consistency check has nothing to disagree with, so the TPDU
        # itself may verify — but its bytes land nowhere, and the
        # connection-level stream shows the hole (caught by the next
        # layer of virtual reassembly, exactly the paper's layering).
        assert receiver.stream.bytes_placed < 8 * 4

    def test_contradictory_x_st_is_a_rejected_placement_the_verifier_still_sees(self):
        """An X.ST claiming the frame ends below bytes already placed is
        refused by the frame store (whatever the arrival order), counted,
        and the chunk still reaches the verifier, which fails the TPDU.
        Its bytes are the stream's, placed under an uncorrupted C.SN, so
        the true X.ST finds the frame's window whole."""
        from dataclasses import replace as _replace

        from repro.core.fragment import split_to_unit_limit
        from repro.wsc.endtoend import REASON_CODE_MISMATCH

        sender = ChunkTransportSender(ConnectionConfig(connection_id=3, tpdu_units=12))
        chunks = sender.send_frame(make_payload(12), frame_id=1)
        data = [c for c in chunks if c.type is ChunkType.DATA]
        rest = [c for c in chunks if c.type is not ChunkType.DATA]
        head, middle, tail = [p for c in data for p in split_to_unit_limit(c, 4)]
        bad_head = head.with_tuples(x=_replace(head.x, st=True))

        receiver = ChunkTransportReceiver()
        events = receiver.receive_chunks([middle, bad_head, tail] + rest)
        assert receiver.rejected_placements == 1
        assert events.completed_frames == [1]                    # once, at the true X.ST
        assert receiver.frames.frame(1).total_bytes == 12 * 4   # the true end stood
        assert [v.reason for v in events.verdicts] == [REASON_CODE_MISMATCH]
        assert receiver.stream.bytes_placed == 12 * 4            # C-level placement unaffected


class TestConnectionEndIsArrivalOrderInvariant:
    """The stream's size may not depend on which chunk arrived first: a
    C.ST that contradicts the known end, or ends the stream below bytes
    already placed, is a refused placement — the rule T.ST and X.ST obey."""

    @staticmethod
    def _chunk(**labels):
        from tests.helpers import make_chunk

        return make_chunk(units=5, **labels)

    @staticmethod
    def _drive(chunks):
        from repro.obs.provenance import journey_session
        from repro.wsc.invariant import encode_tpdu

        receiver = ChunkTransportReceiver()
        with journey_session() as tracker:
            for chunk in chunks:
                receiver.receive_chunk(chunk)
                # Never an end below the placed span: the application is
                # handed exactly as many bytes as the end it is told.
                total = receiver.stream.total_bytes
                assert total is None or len(receiver.stream_bytes()) == total
            verdicts = receiver.receive_chunk(encode_tpdu(chunks)[1]).verdicts
            refusals = [
                record.fields.get("reason")
                for journey in tracker.journeys()
                for record in journey.refusals()
            ]
        return receiver, verdicts, refusals

    @pytest.mark.parametrize("end_first", [True, False])
    def test_c_st_below_placed_bytes(self, end_first):
        head = self._chunk(c_st=True, seed=1)
        tail = self._chunk(c_sn=5, t_sn=5, t_st=True, x_sn=5, seed=2)
        receiver, verdicts, refusals = self._drive(
            [head, tail] if end_first else [tail, head]
        )
        assert receiver.rejected_placements == 1 and refusals == ["bounds"]
        assert receiver.stream.bytes_placed == 20
        # Only an accepted end closes the connection ...
        assert receiver.closed is end_first
        assert receiver.stream.total_bytes == (20 if end_first else None)
        assert len(receiver.stream_bytes()) == (20 if end_first else 40)
        # ... and the refused chunk still reached the verifier.
        assert [v.ok for v in verdicts] == [True]

    @pytest.mark.parametrize("low_first", [True, False])
    def test_two_different_ends(self, low_first):
        low = self._chunk(c_st=True, seed=1)
        high = self._chunk(c_sn=5, c_st=True, t_sn=5, t_st=True, x_sn=5, seed=2)
        receiver, verdicts, refusals = self._drive(
            [low, high] if low_first else [high, low]
        )
        assert receiver.rejected_placements == 1 and refusals == ["bounds"]
        assert receiver.stream.total_bytes == (20 if low_first else 40)
        assert receiver.stream.bytes_placed == 20
        assert [v.ok for v in verdicts] == [True]

    def test_repeated_end_marker_is_a_duplicate_not_a_contradiction(self):
        end = self._chunk(c_st=True, t_st=True)
        receiver, verdicts, refusals = self._drive([end, end])
        assert receiver.rejected_placements == 0 and refusals == []
        assert receiver.duplicate_chunks == 1 and receiver.closed
        assert receiver.stream_bytes() == end.payload
