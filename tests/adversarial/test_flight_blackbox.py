"""Black-box acceptance: the flight recorder under a live attack.

Runs the seeded slow-loris scenario with the full observability stack
installed — journey tracker, flight recorder, registry — and
asserts the end-to-end story the subsystem exists for:

- stall evictions auto-dump deterministic JSONL black boxes, and two
  same-seed runs produce byte-identical artifacts (dumps + journal);
- the journal reconstructs the *complete* journey of a refused chunk:
  formation, every retransmission generation, each refusal with its
  stage and reason, and the conversation's eviction event;
- the Perfetto export of that journal parses and contains the refused
  chunk's timeline;
- eviction records carry an explicit ``reason`` field.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.app.adversarial import check_invariants, run_slow_loris
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.obs.flight import flight_session
from repro.obs.perfetto import chunk_timelines, journeys_to_trace, parse_trace
from repro.obs.provenance import JourneyTracker, journey_session
from repro.obs.report import load_records
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint

from tests.helpers import deterministic_bytes

SEED = 1
OBJECT_BYTES = 32768  # > fair share with 30 registrants: forces refusals

EVICTION_REASONS = {"idle", "stalled", "closed", "tombstone_overflow"}


def _run_recorded(directory: Path):
    """One fully-instrumented slow-loris run; returns its artifacts."""
    with obs.session():
        with journey_session() as tracker:
            with flight_session(dump_dir=directory) as recorder:
                report = run_slow_loris(SEED, object_bytes=OBJECT_BYTES)
                check_invariants(report)
                journal = directory / "journal.jsonl"
                obs.write_jsonl(journal, journey=tracker)
    return report, tracker, recorder, journal


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    return _run_recorded(tmp_path_factory.mktemp("flight-a"))


class TestDeterministicArtifacts:
    def test_same_seed_runs_are_byte_identical(
        self, recorded_run, tmp_path_factory
    ):
        _, _, recorder_a, journal_a = recorded_run
        directory_b = tmp_path_factory.mktemp("flight-b")
        _, _, recorder_b, journal_b = _run_recorded(directory_b)
        names_a = [p.name for p in recorder_a.dumps]
        names_b = [p.name for p in recorder_b.dumps]
        assert names_a == names_b
        assert names_a, "no flight dumps were written"
        for path_a, path_b in zip(recorder_a.dumps, recorder_b.dumps):
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
        assert journal_a.read_bytes() == journal_b.read_bytes()

    def test_stall_evictions_dump_black_boxes(self, recorded_run):
        report, _, recorder, _ = recorded_run
        assert report.extra["stalled_evictions"] > 0
        stall_dumps = [
            p for p in recorder.dumps if "stalled_eviction" in p.name
        ]
        assert len(stall_dumps) == report.extra["stalled_evictions"]
        meta = json.loads(stall_dumps[0].read_text().splitlines()[0])
        assert meta["kind"] == "flight-meta"
        assert meta["trigger"] == "stalled_eviction"
        assert meta["conversations"] > 0


class TestRefusedChunkJourney:
    def _refused_journeys(self, journal: Path):
        tracker = JourneyTracker()
        tracker.replay(load_records(journal))
        honest = [
            j
            for cid in tracker.conversation_ids()
            if cid < 10_000  # attacker C.IDs start at 10000
            for j in tracker.journeys(c_id=cid)
            if j.refusals()
        ]
        assert honest, "no honest conversation had a refused chunk"
        return honest

    def test_journal_reconstructs_full_refused_journey(self, recorded_run):
        *_, journal = recorded_run
        journeys = self._refused_journeys(journal)
        # At least one refused chunk shows the complete story: formed,
        # retransmitted across generations, refused for budget, then
        # refused again after its conversation was evicted for stall.
        reasons = {
            str(r.fields.get("reason"))
            for j in journeys
            for r in j.refusals()
        }
        assert "budget" in reasons
        assert "evicted" in reasons
        exemplar = next(
            j
            for j in journeys
            if j.stages[0] == "formed"
            and max(j.generations) > 0
            and any(r.fields.get("reason") == "budget" for r in j.refusals())
        )
        assert "retransmit" in exemplar.stages
        # The eviction event is joined into the same journey.
        evictions = [
            r for r in exemplar.conn_records if r.stage == "evicted"
        ]
        assert evictions and evictions[0].fields["reason"] == "stalled"
        # And the journey is causally ordered.
        times = [record.t for record in exemplar.records]
        assert times == sorted(times)

    def test_perfetto_export_contains_refused_timeline(self, recorded_run):
        *_, journal = recorded_run
        records = load_records(journal)
        trace = journeys_to_trace(records)
        parse_trace(trace)
        timelines = chunk_timelines(trace)
        exemplar = self._refused_journeys(journal)[0]
        assert exemplar.key in timelines
        stages = [stage for _, stage, _ in timelines[exemplar.key]]
        assert stages == exemplar.stages


class TestEvictionReasons:
    def test_slow_loris_evictions_carry_stalled_reason(self, recorded_run):
        _, tracker, _, _ = recorded_run
        evictions = [r for r in tracker.records if r.stage == "evicted"]
        assert evictions
        for record in evictions:
            assert record.fields.get("reason") in EVICTION_REASONS
        assert any(r.fields["reason"] == "stalled" for r in evictions)

    def test_tombstone_drops_carry_overflow_reason(self, recorded_run):
        _, tracker, _, _ = recorded_run
        for record in tracker.records:
            if record.fields.get("reason") == "tombstone_overflow":
                assert record.stage == "evicted" and record.level == "conn"
                assert record.fields["dropped"] > 0

    def _idle_endpoint(self, end_of_connection: bool):
        loop = EventLoop()
        sender = ChunkEndpoint(loop, mtu=1500, idle_timeout=0.5)
        receiver = ChunkEndpoint(loop, mtu=1500, idle_timeout=0.5)
        forward = Link(
            loop, receiver.receive_packet, rate_bps=622e6, delay=0.0005,
            rng=substream(3, "blackbox", "f"),
        )
        reverse = Link(
            loop, sender.receive_packet, rate_bps=622e6, delay=0.0005,
            rng=substream(3, "blackbox", "r"),
        )
        sender.transmit = forward.send
        receiver.transmit = reverse.send
        connection = sender.open_connection(ConnectionConfig(connection_id=4))
        connection.send_frame(
            deterministic_bytes(1024, 3),
            end_of_connection=end_of_connection,
        )
        loop.run()
        return loop, receiver

    def _sweep_reasons(self, end_of_connection: bool) -> set[str]:
        with journey_session() as tracker:
            loop, receiver = self._idle_endpoint(end_of_connection)
            evicted = receiver.sweep(loop.now + 10.0)
            assert 4 in evicted
            return {
                str(r.fields["reason"])
                for r in tracker.records
                if r.stage == "evicted"
            }

    def test_idle_eviction_reason(self):
        assert self._sweep_reasons(end_of_connection=False) == {"idle"}

    def test_closed_eviction_reason(self):
        assert self._sweep_reasons(end_of_connection=True) == {"closed"}
