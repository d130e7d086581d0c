"""Tests for the conversation flight recorder (repro.obs.flight)."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ObsError
from repro.obs.flight import (
    FlightRecorder,
    active_flight,
    flight_dump,
    flight_session,
    install_flight,
    uninstall_flight,
)
from repro.obs.provenance import journey_session


def _emit_some(tracker, c_id: int, count: int) -> None:
    for sn in range(count):
        tracker.emit("formed", c_id, sn * 4, 4, t=float(sn))


class TestFlightRecorder:
    def test_rings_are_bounded_per_conversation(self, bare_obs):
        with journey_session() as tracker:
            with flight_session(ring_size=8) as recorder:
                _emit_some(tracker, 1, 20)
                _emit_some(tracker, 2, 3)
                assert recorder.records_seen == 23
                assert recorder.conversation_ids() == [1, 2]
                ring = recorder.ring(1)
                assert len(ring) == 8
                # Oldest dropped: the ring retains the *latest* history.
                assert ring[0].offset == 12 * 4
                assert ring[-1].offset == 19 * 4
                assert len(recorder.ring(2)) == 3
                assert recorder.ring(99) == []

    def test_rings_outlive_tracker_saturation(self, bare_obs):
        from repro.obs.provenance import JourneyTracker

        with journey_session(JourneyTracker(max_records=2)) as tracker:
            with flight_session(ring_size=64) as recorder:
                _emit_some(tracker, 1, 10)
                assert len(tracker.records) == 2
                assert tracker.dropped == 8
                # The black box still saw every record.
                assert len(recorder.ring(1)) == 10

    def test_snapshot_structure(self, bare_obs):
        with journey_session() as tracker:
            with flight_session() as recorder:
                _emit_some(tracker, 7, 2)
                records = recorder.snapshot("unit", "tag")
                kinds = [r["kind"] for r in records]
                assert kinds[0] == "flight-meta"
                assert records[0]["trigger"] == "unit"
                assert records[0]["tag"] == "tag"
                assert records[0]["conversations"] == 1
                assert "flight-conversation" in kinds
                assert kinds.count("provenance") == 2
                assert kinds[-1] == "flight-latency"

    def test_dump_writes_deterministic_jsonl(self, bare_obs, tmp_path):
        def run(directory):
            with journey_session() as tracker:
                with flight_session(dump_dir=directory) as recorder:
                    _emit_some(tracker, 7, 5)
                    return recorder.dump("invariant", "slow_loris")

        path_a = run(tmp_path / "a")
        path_b = run(tmp_path / "b")
        assert path_a.name == "flight-000-invariant-slow_loris.jsonl"
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = path_a.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_dump_sequence_numbers_and_slug(self, bare_obs, tmp_path):
        with journey_session() as tracker:
            with flight_session(dump_dir=tmp_path) as recorder:
                _emit_some(tracker, 1, 1)
                first = recorder.dump("invariant", "weird/label: spaces!")
                second = recorder.dump("invariant")
                assert first.name.startswith("flight-000-invariant-")
                assert "/" not in first.name[7:]
                assert ":" not in first.name
                assert second.name == "flight-001-invariant.jsonl"
                assert recorder.dumps == [first, second]

    def test_dump_without_directory_returns_none(self, bare_obs):
        with journey_session():
            with flight_session() as recorder:
                assert recorder.dump("trigger") is None


class TestInstallation:
    def test_install_requires_journey(self, bare_obs):
        with pytest.raises(ObsError):
            install_flight()

    def test_flight_dump_is_noop_uninstalled(self, bare_obs):
        assert flight_dump("anything") is None

    def test_install_couples_to_tracker_on_record(self, bare_obs):
        with journey_session() as tracker:
            recorder = install_flight()
            assert tracker.on_record == recorder.observe
            assert active_flight() is recorder
            uninstall_flight()
            assert tracker.on_record is None
            assert active_flight() is None

    def test_session_restores_previous_recorder(self, bare_obs):
        with journey_session():
            outer = install_flight(FlightRecorder(ring_size=4))
            with flight_session(ring_size=16) as inner:
                assert active_flight() is inner
            assert active_flight() is outer

    def test_ring_size_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(ring_size=0)
