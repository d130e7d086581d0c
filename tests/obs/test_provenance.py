"""Tests for label-keyed provenance journeys (repro.obs.provenance)."""

from __future__ import annotations

import io

from repro.core.packet import pack_chunks
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.obs import provenance, write_jsonl
from repro.obs.provenance import (
    JourneyTracker,
    StageRecord,
    active_journey,
    bind_journey_clock,
    frame_labels,
    journal_records,
    journey_session,
)
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint

from tests.helpers import deterministic_bytes, make_chunk


def _transfer(loss: float = 0.0, seed: int = 5, nbytes: int = 4096):
    """One reliable frame through an endpoint pair over explicit links."""
    loop = EventLoop()
    bind_journey_clock(lambda: loop.now)
    sender = ChunkEndpoint(loop, mtu=1500)
    receiver = ChunkEndpoint(loop, mtu=1500)
    forward = Link(
        loop,
        receiver.receive_packet,
        rate_bps=622e6,
        delay=0.0005,
        loss_rate=loss,
        rng=substream(seed, "provenance", "forward"),
    )
    reverse = Link(
        loop,
        sender.receive_packet,
        rate_bps=622e6,
        delay=0.0005,
        rng=substream(seed, "provenance", "reverse"),
    )
    sender.transmit = forward.send
    receiver.transmit = reverse.send
    connection = sender.open_connection(ConnectionConfig(connection_id=7))
    payload = deterministic_bytes(nbytes, seed)
    connection.send_frame(payload, end_of_connection=True)
    loop.run()
    return receiver, payload


class TestStageRecord:
    def test_dict_roundtrip(self):
        record = StageRecord(
            t=1.5, stage="placed", c_id=7, offset=1024, length=256,
            gen=2, fields={"reason": "budget"},
        )
        assert StageRecord.from_dict(record.as_dict()) == record
        assert record.as_dict()["kind"] == "provenance"
        assert record.key == (7, 1024, 256)

    def test_empty_fields_omitted(self):
        record = StageRecord(t=0.0, stage="formed", c_id=1, offset=0, length=4)
        assert "fields" not in record.as_dict()


class TestJourneyTracker:
    def test_journey_joins_all_levels(self):
        tracker = JourneyTracker()
        tracker.emit("formed", 7, 0, 256, t=0.0, t_id=3, x_id=9)
        tracker.emit("placed", 7, 0, 256, t=1.0, t_id=3, x_id=9)
        tracker.emit("verified", 7, 0, 0, t=2.0, level="tpdu", t_id=3, ok=True)
        tracker.emit("delivered", 7, 0, 0, t=3.0, level="frame", x_id=9)
        tracker.emit("established", 7, 0, 0, t=-1.0, level="conn")
        journey = tracker.journey(7, 0, 256)
        assert journey is not None
        assert journey.stages == ["formed", "placed"]
        assert [r.stage for r in journey.tpdu_records] == ["verified"]
        assert [r.stage for r in journey.frame_records] == ["delivered"]
        assert [r.stage for r in journey.conn_records] == ["established"]
        assert [r.stage for r in journey.timeline()] == [
            "established", "formed", "placed", "verified", "delivered",
        ]
        assert journey.outcome == "delivered"

    def test_outcome_ladder(self):
        tracker = JourneyTracker()
        tracker.emit("formed", 1, 0, 4, t=0.0)
        tracker.emit("refused", 1, 0, 4, t=1.0, reason="budget")
        assert tracker.journey(1, 0, 4).outcome == "refused"
        tracker.emit("placed", 1, 0, 4, t=2.0, gen=1)
        journey = tracker.journey(1, 0, 4)
        assert journey.outcome == "placed"
        assert journey.generations == [0, 1]
        assert [r.stage for r in journey.refusals()] == ["refused"]

    def test_latency_histograms(self):
        tracker = JourneyTracker()
        tracker.emit("formed", 7, 0, 256, t=0.0, x_id=9)
        tracker.emit("link_tx", 7, 0, 256, t=1.0, x_id=9)
        tracker.emit("refused", 7, 0, 256, t=2.0, x_id=9, reason="budget")
        tracker.emit("placed", 7, 0, 256, t=5.0, gen=1, x_id=9)
        tracker.emit("delivered", 7, 0, 0, t=6.0, level="frame", x_id=9)
        summary = tracker.latency_summary()
        assert summary["first_tx_to_place"]["count"] == 1
        assert summary["first_tx_to_place"]["sum"] == 4.0
        assert summary["refusal_to_retry"]["sum"] == 3.0
        assert summary["formation_to_delivery"]["sum"] == 6.0

    def test_bound_counts_drops_but_sink_sees_everything(self):
        tracker = JourneyTracker(max_records=2)
        seen: list[StageRecord] = []
        tracker.on_record = seen.append
        for sn in range(5):
            tracker.emit("formed", 1, sn * 4, 4, t=float(sn))
        assert len(tracker.records) == 2
        assert tracker.dropped == 3
        assert len(seen) == 5

    def test_clock_stamps_when_t_omitted(self):
        tracker = JourneyTracker(clock=lambda: 42.0)
        tracker.emit("formed", 1, 0, 4)
        assert tracker.records[0].t == 42.0

    def test_replay_rebuilds_journeys(self):
        tracker = JourneyTracker()
        tracker.emit("formed", 7, 0, 256, t=0.0, t_id=3, x_id=9)
        tracker.emit("retransmit", 7, 0, 256, t=1.0, gen=2, t_id=3, x_id=9)
        tracker.emit("verified", 7, 0, 0, t=2.0, level="tpdu", t_id=3, ok=True)
        replayed = JourneyTracker()
        replayed.replay(journal_records(tracker))
        assert replayed.records == tracker.records
        journey = replayed.journey(7, 0, 256)
        assert journey.generations == [0, 2]
        assert len(journey.tpdu_records) == 1

    def test_write_jsonl_journey_deterministic(self, tmp_path):
        def build() -> JourneyTracker:
            tracker = JourneyTracker()
            tracker.emit("formed", 7, 0, 256, t=0.0, t_id=3)
            tracker.emit("placed", 7, 0, 256, t=1.0, t_id=3)
            return tracker

        stream_a, stream_b = io.StringIO(), io.StringIO()
        assert write_jsonl(stream_a, journey=build()) == 3  # 2 records + meta
        write_jsonl(stream_b, journey=build())
        assert stream_a.getvalue() == stream_b.getvalue()
        path = tmp_path / "journal.jsonl"
        write_jsonl(path, journey=build())
        assert path.read_text() == stream_a.getvalue()


class TestHandle:
    """The one handle instrumented code reads: ``provenance._tracker``."""

    def test_session_installs_and_restores(self, bare_obs):
        with journey_session(clock=lambda: 3.0) as tracker:
            assert provenance._tracker is tracker
            tracker.chunk("formed", make_chunk(c_id=5, c_sn=2))
            assert tracker.records[0].key == (5, 2 * 4, 32)
            assert tracker.records[0].t == 3.0
        assert provenance._tracker is None
        assert active_journey() is None

    def test_nested_sessions_restore_previous(self, bare_obs):
        with journey_session() as outer:
            with journey_session() as inner:
                assert active_journey() is inner
            assert active_journey() is outer


class TestFrameLabels:
    def test_labels_from_wire_frame(self):
        chunk = make_chunk(c_id=7, c_sn=2, t_id=3, x_id=9, units=8)
        frame = pack_chunks([chunk], 1500)[0].encode()
        assert frame_labels(frame) == [
            (7, chunk.c.sn * chunk.unit_bytes, chunk.payload_bytes, 3, 9)
        ]

    def test_corrupted_frame_yields_no_labels(self):
        assert frame_labels(b"\x00garbage") == []


class TestEndToEnd:
    def test_clean_transfer_every_chunk_delivered(self):
        with journey_session() as tracker:
            receiver, payload = _transfer(loss=0.0)
            assert receiver.connection(7).stream_bytes() == payload
            journeys = tracker.journeys(c_id=7)
            assert journeys, "no journeys recorded"
            for journey in journeys:
                assert journey.outcome == "delivered"
                for stage in ("formed", "packed", "link_tx", "link_rx",
                              "demux", "placed"):
                    assert stage in journey.stages, (
                        f"{journey.key}: missing {stage} in {journey.stages}"
                    )
                assert journey.stages.count("placed") == 1
            # Placed offsets tile the payload exactly once.
            placed = sorted((j.offset, j.length) for j in journeys)
            cursor = 0
            for offset, length in placed:
                assert offset == cursor
                cursor += length
            assert cursor == len(payload)

    def test_lossy_transfer_records_retransmission_generations(self):
        with journey_session() as tracker:
            receiver, payload = _transfer(loss=0.25, seed=11, nbytes=32768)
            assert receiver.connection(7).stream_bytes() == payload
            journeys = tracker.journeys(c_id=7)
            assert any(
                max(j.generations) > 0 for j in journeys
            ), "a 25% lossy run produced no retransmission generations"
            for journey in journeys:
                assert journey.stages.count("placed") == 1
                assert journey.outcome == "delivered"

    def test_conn_lifecycle_records(self):
        with journey_session() as tracker:
            _transfer(loss=0.0)
            stages = [
                r.stage
                for r in tracker.records
                if r.level == "conn" and r.c_id == 7
            ]
            assert "established" in stages
            assert "closed" in stages
