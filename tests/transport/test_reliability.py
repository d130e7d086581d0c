"""Unit tests for ACK chunks, reliable delivery, and adaptive TPDUs."""

import random

import pytest

from repro.core.errors import ChunkError
from repro.core.packet import Packet, pack_chunks
from repro.core.types import ChunkType
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.obs import journey_session
from repro.transport.acks import (
    MAX_ACKS_PER_CHUNK,
    OPEN_END,
    build_ack_chunk,
    build_gap_report,
    parse_ack_chunk,
    parse_gap_report,
)
from repro.transport.connection import ConnectionConfig
from repro.transport.reliability import (
    REORDER_TPDUS,
    AdaptiveTpduPolicy,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.sender import ChunkTransportSender

from tests.conftest import make_payload


class TestAckChunks:
    def test_roundtrip(self):
        chunk = build_ack_chunk(7, [1, 2, 99])
        assert chunk.type is ChunkType.ACK
        assert parse_ack_chunk(chunk) == [1, 2, 99]
        assert chunk.c.ident == 7

    def test_empty_rejected(self):
        with pytest.raises(ChunkError):
            build_ack_chunk(7, [])

    def test_limit_enforced(self):
        with pytest.raises(ChunkError):
            build_ack_chunk(7, list(range(MAX_ACKS_PER_CHUNK + 1)))

    def test_parse_rejects_data(self):
        from tests.conftest import make_chunk

        with pytest.raises(ChunkError):
            parse_ack_chunk(make_chunk())

    def test_survives_wire_roundtrip(self):
        from repro.core.codec import decode_chunk, encode_chunk

        chunk = build_ack_chunk(3, [10, 20])
        decoded, _ = decode_chunk(encode_chunk(chunk))
        assert parse_ack_chunk(decoded) == [10, 20]

    def test_ack_chunks_are_indivisible(self):
        from repro.core.errors import FragmentationError
        from repro.core.fragment import split

        with pytest.raises(FragmentationError):
            split(build_ack_chunk(3, [1, 2]), 1)

    @pytest.mark.parametrize("count", [1, 2, 63, 64])
    def test_roundtrip_through_the_wire_at_every_size(self, count):
        from repro.core.codec import decode_chunk, encode_chunk

        from tests.properties.test_chunk_record import assert_constructible

        t_ids = [0, 2**32 - 1, *range(7, 7 + count - 2)][:count]
        chunk = build_ack_chunk(2**32 - 1, t_ids)
        assert_constructible(chunk)
        assert (chunk.size, chunk.length, chunk.c_id, chunk.t_id, chunk.x_id) == (
            1, count, 2**32 - 1, 0, 0
        )
        assert parse_ack_chunk(chunk) == t_ids
        decoded, _ = decode_chunk(encode_chunk(chunk))
        assert decoded == chunk and parse_ack_chunk(decoded) == t_ids

    @pytest.mark.parametrize("t_ids", [[], list(range(MAX_ACKS_PER_CHUNK + 1))])
    def test_an_empty_or_oversized_list_is_a_chunk_error(self, t_ids):
        with pytest.raises(ChunkError):
            build_ack_chunk(7, t_ids)

    @pytest.mark.parametrize("c_id", [2**32, -1])
    def test_a_c_id_outside_its_field_is_a_value_error(self, c_id):
        with pytest.raises(ValueError, match="ID must be in 0..2\\^32-1"):
            build_ack_chunk(c_id, [1])

    def test_parse_rejects_every_other_type(self):
        from repro.transport.connection import ConnectionConfig, build_signaling_chunk
        from repro.wsc.invariant import EdPayload, build_ed_chunk

        for chunk in (build_ed_chunk(1, 2, EdPayload(3, 4, 5)),
                      build_signaling_chunk(ConnectionConfig(connection_id=1))):
            with pytest.raises(ChunkError, match="not an ACK chunk"):
                parse_ack_chunk(chunk)


class TestPiggyback:
    """Appendix A: piggybacking is ordinary packing of data and ACK chunks."""

    def test_acks_share_packets_with_data(self):
        sender = ChunkTransportSender(ConnectionConfig(connection_id=4, tpdu_units=8))
        data = sender.send_frame(make_payload(8))
        acks = [build_ack_chunk(4, [5, 6])]
        packets = pack_chunks(data + acks, mtu=1500)
        assert len(packets) == 1  # everything rode together
        types = {c.type for c in packets[0].chunks}
        assert ChunkType.ACK in types and ChunkType.DATA in types

    def test_no_special_format(self):
        """A piggybacked packet decodes with the ordinary packet parser."""
        sender = ChunkTransportSender(ConnectionConfig(connection_id=4, tpdu_units=8))
        data = sender.send_frame(make_payload(8))
        packets = pack_chunks(data + [build_ack_chunk(4, [1])], mtu=1500)
        decoded = Packet.decode(packets[0].encode())
        assert len(decoded.chunks) == len(packets[0].chunks)


class TestAdaptivePolicy:
    def test_loss_halves(self):
        policy = AdaptiveTpduPolicy(min_units=16, current_units=256)
        assert policy.on_loss() == 128
        assert policy.on_loss() == 64

    def test_floor(self):
        policy = AdaptiveTpduPolicy(min_units=32, current_units=40)
        assert policy.on_loss() == 32
        assert policy.on_loss() == 32

    def test_growth_needs_streak(self):
        policy = AdaptiveTpduPolicy(grow_after=3, grow_step=10, current_units=100)
        assert policy.on_first_try_success() == 100
        assert policy.on_first_try_success() == 100
        assert policy.on_first_try_success() == 110

    def test_loss_resets_streak(self):
        policy = AdaptiveTpduPolicy(grow_after=2, grow_step=10, current_units=100)
        policy.on_first_try_success()
        policy.on_loss()
        assert policy.on_first_try_success() == 50
        assert policy.on_first_try_success() == 60

    def test_ceiling(self):
        policy = AdaptiveTpduPolicy(
            grow_after=1, grow_step=1000, max_units=128, current_units=100
        )
        assert policy.on_first_try_success() == 128


def _wire_pair(loop, loss_fwd=0.0, loss_rev=0.0, seed=1, **sender_kwargs):
    """A ReliableSender and ReliableReceiver joined by lossy links."""
    receiver_box = {}

    fwd = Link(
        loop,
        deliver=lambda f: receiver_box["rx"].receive_packet(f),
        loss_rate=loss_fwd,
        rng=substream(seed, "fwd"),
        mtu=1500,
    )
    sender = ReliableSender(
        loop, fwd.send, ConnectionConfig(connection_id=3, tpdu_units=64),
        **sender_kwargs,
    )

    def deliver_acks(frame):
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                sender.handle_ack_chunk(chunk)

    rev = Link(
        loop, deliver=deliver_acks, loss_rate=loss_rev,
        rng=substream(seed, "rev"), mtu=1500,
    )
    receiver_box["rx"] = ReliableReceiver(transmit=rev.send)
    return sender, receiver_box["rx"]


class TestReliableDelivery:
    def _transfer(self, loss_fwd, loss_rev, frames=8, seed=1, **kwargs):
        loop = EventLoop()
        sender, receiver = _wire_pair(
            loop, loss_fwd=loss_fwd, loss_rev=loss_rev, seed=seed, **kwargs
        )
        rng = random.Random(9)
        payload = b""
        for i in range(frames):
            data = bytes(rng.randrange(256) for _ in range(512))
            payload += data
            sender.send_frame(data, frame_id=i)
        loop.run()
        return sender, receiver, payload

    def test_clean_path_no_retransmissions(self):
        sender, receiver, payload = self._transfer(0.0, 0.0)
        assert sender.retransmissions == 0
        assert sender.finished
        assert receiver.receiver.stream_bytes() == payload

    def test_forward_loss_recovered(self):
        sender, receiver, payload = self._transfer(0.3, 0.0)
        assert sender.retransmissions > 0
        assert sender.finished and not sender.gave_up
        assert receiver.receiver.stream_bytes() == payload
        assert receiver.receiver.corrupted_tpdus() == 0

    def test_ack_loss_recovered_by_reack(self):
        sender, receiver, payload = self._transfer(0.0, 0.4)
        assert sender.finished and not sender.gave_up
        assert receiver.receiver.stream_bytes() == payload

    def test_bidirectional_loss(self):
        sender, receiver, payload = self._transfer(0.25, 0.25, seed=4)
        assert sender.finished and not sender.gave_up
        assert receiver.receiver.stream_bytes() == payload

    def test_gives_up_on_dead_path(self):
        loop = EventLoop()
        sender, receiver = _wire_pair(loop, loss_fwd=1.0, seed=2, max_retries=3)
        sender.send_frame(make_payload(64))
        loop.run()
        assert sender.gave_up
        assert sender.finished  # nothing left outstanding

    def test_adaptive_policy_shrinks_under_loss(self):
        sender, receiver, payload = self._transfer(
            0.35, 0.0, seed=3,
            policy=AdaptiveTpduPolicy(min_units=8, max_units=256, current_units=64),
        )
        assert sender.finished
        assert receiver.receiver.stream_bytes() == payload
        assert sender.sender.tpdu_units < 64

    def test_adaptive_policy_grows_on_clean_path(self):
        sender, receiver, payload = self._transfer(
            0.0, 0.0, frames=30, seed=3,
            policy=AdaptiveTpduPolicy(
                min_units=8, max_units=256, current_units=64,
                grow_after=4, grow_step=16,
            ),
        )
        assert sender.sender.tpdu_units > 64

    def test_retransmissions_reuse_identifiers(self):
        """The receiver's duplicate counters prove retransmitted chunks
        carried original labels (otherwise they'd be fresh TPDUs)."""
        sender, receiver, payload = self._transfer(0.3, 0.3, seed=6)
        assert receiver.receiver.stream_bytes() == payload
        # Every verified TPDU must be one the sender originally created.
        assert receiver.receiver.verified_tpdus() == sender.sender.tpdus_sent


class TestRetransmitHistoryCap:
    """The retransmit history and the timed set are one table: a TPDU the
    history trims while timed is given up then, not timed on to a crash."""

    @staticmethod
    def _flood(frames):
        loop = EventLoop()
        sender = ReliableSender(
            loop, lambda frame: None, ConnectionConfig(connection_id=3, tpdu_units=16)
        )
        with journey_session(clock=lambda: loop.now) as journey:
            for _ in range(frames):
                sender.send_frame(make_payload(16))  # one 64-byte TPDU per frame
            loop.run(until=0.2)
        given_up = [r.fields["t_id"] for r in journey.records if r.stage == "gave_up"]
        return sender, given_up

    def test_trimmed_tpdus_are_given_up_and_their_timers_do_nothing(self):
        sender, given_up = self._flood(1100)  # the history keeps the newest 1024
        assert sender.gave_up == given_up == list(range(76))
        assert sender.outstanding == list(range(76, 1100))
        assert sender.timeouts == sender.retransmissions == 2 * 1024  # at 0.05 s and 0.15 s

    def test_under_the_limit_nothing_is_given_up(self):
        sender, given_up = self._flood(1000)
        assert sender.gave_up == given_up == []
        assert sender.outstanding == list(range(1000))
        assert sender.timeouts == sender.retransmissions == 2 * 1000
        assert sender.sender.retransmitted_chunks == 2 * 2 * 1000  # DATA + ED each time

    def test_a_tpdu_that_leaves_the_history_frees_its_chunks(self):
        """Trimmed, acknowledged or given up, a record keeps no chunks for
        the dead timer still queued on it."""
        loop = EventLoop()
        sender = ReliableSender(
            loop, lambda frame: None, ConnectionConfig(connection_id=3, tpdu_units=16),
            max_retries=0,
        )
        sender.sender.history_limit = 2
        records = []
        for t_id in range(3):
            sender.send_frame(make_payload(16))
            records.append(sender.sender._tpdus[t_id])
        sender.handle_ack_chunk(build_ack_chunk(3, [1]))
        loop.run()
        assert sender.gave_up == [0, 2]  # trimmed while timed, then past max_retries
        assert sender.timeouts == 1 and sender.sender._tpdus == {}
        assert [(r.chunks, r.ed_chunk, r.session) for r in records] == [([], None, None)] * 3


class TestAckLabels:
    def test_an_ack_carries_the_c_id_of_the_tpdus_it_acknowledges(self):
        """Verified before any SIGNALING chunk arrived, a TPDU of C.ID 42 is
        still ACKed on C.ID 42 (it used to be C.ID 0)."""
        wire = []
        receiver = ReliableReceiver(transmit=wire.append)
        chunks = ChunkTransportSender(ConnectionConfig(connection_id=42, tpdu_units=4)).send_frame(
            make_payload(8)
        )
        receiver.receive_chunks(chunks)  # two whole TPDUs, no SIG chunk
        assert receiver.receiver.config is None
        (ack,) = [c for frame in wire for c in Packet.decode(frame).chunks]
        assert (ack.type, ack.c_id, parse_ack_chunk(ack)) == (ChunkType.ACK, 42, [0, 1])

    def test_a_re_ack_carries_its_tpdus_c_id_too(self):
        wire = []
        receiver = ReliableReceiver(transmit=wire.append)
        chunks = ChunkTransportSender(ConnectionConfig(connection_id=42, tpdu_units=4)).send_frame(
            make_payload(4)
        )
        receiver.receive_chunks(chunks)
        receiver.receive_chunks([chunks[-1]])  # the ED chunk again: re-ACK
        acks = [c for frame in wire for c in Packet.decode(frame).chunks]
        assert [(c.c_id, parse_ack_chunk(c)) for c in acks] == [(42, [0]), (42, [0])]

    def test_an_endpoint_routes_such_an_ack_to_its_sender(self):
        from repro.transport.endpoint import ChunkEndpoint

        loop = EventLoop()
        endpoint = ChunkEndpoint(loop, transmit=lambda frame: None)
        connection = endpoint.open_connection(ConnectionConfig(connection_id=42, tpdu_units=4))
        connection.send_frame(make_payload(4))
        loop.run(until=0.001)
        wire = []
        receiver = ReliableReceiver(transmit=wire.append)
        data = [c for c in connection.sender.sender.retransmit(0)]
        receiver.receive_chunks(data)  # the SIG chunk was lost: verified unconfigured
        for frame in wire:
            endpoint.receive_packet(frame)
        assert endpoint.acks_unroutable == 0 and connection.finished


class TestStrayAcks:
    def test_an_ack_for_a_tpdu_never_timed_leaves_count_and_resignal_as_they_were(self):
        loop, shipped = EventLoop(), []
        sender = ReliableSender(
            loop, None, ConnectionConfig(connection_id=3, tpdu_units=64),
            transmit_chunks=shipped.extend, resignal_until_acked=True,
        )
        sender.handle_ack_chunk(build_ack_chunk(3, [0]))  # nothing sent at all
        assert (sender.acks_received, sender._signal) == (0, None)
        sender.send_frame(make_payload(8))  # TPDU 0 is filling, not timed
        signal = sender._signal
        assert signal is not None
        sender.handle_ack_chunk(build_ack_chunk(3, [0]))
        assert (sender.acks_received, sender._signal) == (0, signal)
        sender.send_frame(make_payload(8), end_of_connection=True)  # TPDU 0 timed
        sender.handle_ack_chunk(build_ack_chunk(3, [0, 0]))
        assert (sender.acks_received, sender._signal, sender.finished) == (1, None, True)


def _tpdu_chunks(units: int = 24, limit: int = 4) -> tuple[ChunkTransportSender, list]:
    """One TPDU of *units* units in chunks of at most *limit*, and its ED chunk."""
    from repro.core.fragment import split_to_unit_limit

    sender = ChunkTransportSender(ConnectionConfig(connection_id=6, tpdu_units=units))
    sent = sender.send_frame(make_payload(units))
    record = sender._tpdus[0]
    record.chunks[:] = [p for c in record.chunks for p in split_to_unit_limit(c, limit)]
    return sender, [*record.chunks, record.ed_chunk] if sent else []


class TestGapReports:
    def test_a_gap_report_is_an_ack_chunk_with_t_st_and_acknowledges_nothing(self):
        from repro.core.codec import decode_chunk, encode_chunk

        report = build_gap_report(5, 9, [(2, 4), (7, 25)])
        decoded, _ = decode_chunk(encode_chunk(report))
        assert decoded == report and decoded.type is ChunkType.ACK
        assert (decoded.c_id, decoded.t_id, decoded.t_st) == (5, 9, True)
        assert parse_gap_report(decoded, 24) == [(2, 4), (7, 25)]
        assert parse_gap_report(decoded, 23) is None  # past a 23-unit TPDU and its ED
        assert parse_ack_chunk(decoded) == []
        assert not build_ack_chunk(5, [9]).t_st  # a plain ACK is unchanged

    def test_past_half_an_ack_chunk_of_ranges_the_last_runs_to_the_end(self):
        gaps = [(2 * i, 2 * i + 1) for i in range(MAX_ACKS_PER_CHUNK)]
        sent = parse_gap_report(build_gap_report(1, 0, gaps), 2 * MAX_ACKS_PER_CHUNK)
        half = MAX_ACKS_PER_CHUNK // 2
        assert sent == [*gaps[: half - 1], (gaps[half - 1][0], OPEN_END)]

    def test_retransmit_cuts_exactly_the_gaps_and_keeps_every_label(self):
        sender, chunks = _tpdu_chunks()
        pieces = sender.retransmit(0, [(2, 5), (7, 8), (23, 24)])
        assert [(p.t.sn, p.length) for p in pieces] == [(2, 2), (4, 1), (7, 1), (23, 1)]
        for piece in pieces:
            assert piece.c.sn - piece.t.sn == chunks[0].c.sn - chunks[0].t.sn
            assert piece.t.ident == 0 and piece.x.sn - piece.t.sn == chunks[0].x.sn
        assert pieces[-1].t.st  # the cut keeps the TPDU's end on its last unit
        assert sender.retransmit(0, [(24, 25)]) == [chunks[-1]]  # the ED chunk alone
        assert sender.retransmit(0, [(0, OPEN_END)]) == chunks == sender.retransmit(0)

    def _session(self):
        loop, shipped = EventLoop(), []
        sender = ReliableSender(
            loop, None, ConnectionConfig(connection_id=6, tpdu_units=24),
            transmit_chunks=shipped.extend,
        )
        sender.send_frame(make_payload(24))
        shipped.clear()
        return sender, shipped

    def test_an_honest_report_is_repaired_once_per_timer_round(self):
        sender, shipped = self._session()
        report = build_gap_report(6, 0, [(3, 9)])
        sender.handle_ack_chunk(report)
        assert [(c.t.sn, c.length) for c in shipped] == [(3, 6)]
        sender.handle_ack_chunk(report)  # a duplicate: not a lie, not repaired again
        assert len(shipped) == 1 and sender.gap_reports_refused == 0
        assert sender.retransmissions == 1
        sender.loop.run()  # the timer repeats only the reported units, and the ED chunk
        assert [(c.type, c.length) for c in shipped[1:3]] == [
            (ChunkType.DATA, 6), (ChunkType.ERROR_DETECTION, 3)
        ]

    def test_a_repair_is_traced_as_a_retransmission_not_a_first_send(self):
        # Provenance's generation 0 is the original transmission: a repair
        # made before any timer fired is generation 1, as the first timer
        # repeat is.
        sender, shipped = self._session()
        with journey_session(clock=lambda: sender.loop.now) as journey:
            sender.handle_ack_chunk(build_gap_report(6, 0, [(3, 9)]))
            sender.loop.run(until=sender.rto * 1.5)
        repeats = [(r.offset, r.length, r.gen) for r in journey.records if r.stage == "retransmit"]
        assert sender.timeouts == 1
        assert repeats == [(12, 24, 1), (12, 24, 1)]  # units [3, 9): the repair, then the timer

    @pytest.mark.parametrize(
        "report",
        [
            build_gap_report(6, 0, [(3, 26)]),  # past the TPDU's end and its ED
            build_gap_report(6, 0, [(5, 9), (2, 3)]),  # not ascending
            build_gap_report(6, 0, [(4, 4)]),  # empty
            build_gap_report(6, 7, [(0, 1)]),  # a T.ID never sent
        ],
        ids=["past-end", "descending", "empty", "unsent"],
    )
    def test_a_lying_report_is_refused_counted_and_never_resent(self, report):
        sender, shipped = self._session()
        sender.handle_ack_chunk(report)
        assert (sender.gap_reports_refused, shipped, sender.retransmissions) == (1, [], 0)

    def test_a_report_on_an_acknowledged_tpdu_is_refused(self):
        sender, shipped = self._session()
        sender.handle_ack_chunk(build_ack_chunk(6, [0]))
        sender.handle_ack_chunk(build_gap_report(6, 0, [(0, 1)]))
        assert (sender.gap_reports_refused, shipped) == (1, [])

    def test_a_lost_unit_is_reported_and_repeated_alone_before_the_timer(self):
        loop, wire = EventLoop(), []
        sender = ReliableSender(
            loop, None, ConnectionConfig(connection_id=6, tpdu_units=16), rto=1.0,
            transmit_chunks=wire.extend,
        )
        acks = []
        receiver = ReliableReceiver(None, transmit_chunks=acks.extend)
        for index in range(REORDER_TPDUS + 1):
            sender.send_frame(make_payload(16, seed=index))
        lost = wire[1]  # TPDU 0's one DATA chunk: its ED chunk (wire[2]) arrives
        assert lost.is_data and lost.t_id == 0
        receiver.receive_chunks([c for c in wire if c is not lost])
        reports = [c for c in acks if c.t_st]
        assert [(c.t_id, parse_gap_report(c, 16)) for c in reports] == [(0, [(0, 16)])]
        wire.clear()
        for chunk in acks:
            sender.handle_ack_chunk(chunk)
        assert wire == [lost] and sender.timeouts == 0
        acks.clear()
        receiver.receive_chunks(wire)
        for chunk in acks:
            sender.handle_ack_chunk(chunk)
        assert sender.finished and receiver.receiver.duplicate_chunks == 0
