"""The lifecycle checker on a live endpoint: exhaustive exploration,
the edge check and the invariants against injected faults,
counterexample traces and the Perfetto round-trip.

Every fault here is the live endpoint with one method patched, its own
source with one line changed (:func:`mutate`): nothing in
``repro.transport`` knows it is being checked.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import modelcheck
from repro.analysis.modelcheck import (
    ALPHABET,
    LiveEndpoint,
    ModelCheckResult,
    ModelConfig,
    Snapshot,
    Violation,
    counterexample_records,
    explore,
    write_counterexample,
)
from repro.analysis.state_table import CLOSED, STATE_TABLE, StateTable, Transition
from repro.core.types import ChunkType
from repro.obs.perfetto import journeys_to_trace
from repro.transport.acks import build_ack_chunk, parse_ack_chunk
from repro.transport.endpoint import ChunkEndpoint, ConnectionTable
from repro.transport.reliability import ReliableReceiver, ReliableSender


def mutate(monkeypatch, owner: type, name: str, old: str, new: str) -> None:
    """Patch ``owner.name`` with its own source, *old* replaced by *new*."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (name, old)
    # Compiled as its module is, under the ``annotations`` future import.
    code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec",
                   flags=annotations.compiler_flag, dont_inherit=True)
    namespace: dict[str, object] = {}
    exec(code, vars(sys.modules[function.__module__]), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def admit_tombstoned(monkeypatch) -> None:
    """``_try_establish`` without its tombstone check: the resurrection."""
    mutate(monkeypatch, ChunkEndpoint, "_try_establish",
           "if cid in self.table.evicted_ids:", "if False:")


def ack_on_arrival(monkeypatch) -> None:
    """A receiver that ACKs each TPDU as its chunks arrive, before it
    is verified."""
    acknowledge = ReliableReceiver._acknowledge

    def acks_on_arrival(self, events):
        acknowledge(self, events)
        early = sorted({c.t_id for c in events.chunks if c.type is ChunkType.DATA})
        if early:
            self.transmit_chunks([build_ack_chunk(events.chunks[0].c_id, early)])

    monkeypatch.setattr(ReliableReceiver, "_acknowledge", acks_on_arrival)


@pytest.fixture
def resurrection(monkeypatch) -> Violation:
    """The first violation :func:`explore` finds in the resurrection."""
    admit_tombstoned(monkeypatch)
    return explore().violations[0]


def checked(config: ModelConfig | None = None) -> ModelCheckResult:
    """:func:`explore`; under ``REPRO_FLIGHT_DIR`` every violation's
    shortest trace is written there as flight JSONL (CI uploads it)."""
    result = explore(config=config)
    flight_dir = os.environ.get("REPRO_FLIGHT_DIR")
    if flight_dir:
        for number, violation in enumerate(result.violations):
            name = f"modelcheck-{number:03d}-{violation.invariant}.jsonl"
            write_counterexample(violation, Path(flight_dir) / name)
    return result


def walk(live: LiveEndpoint, *offers: tuple[str, int | None]) -> list[str]:
    """Step *offers*; the invariants and rows the last one broke."""
    for event, conv in offers:
        step, problems = live.step(event, conv)
    return [invariant for invariant, _, _ in problems]


class TestCleanExploration:
    def test_declared_fsm_has_no_violations(self):
        result = checked()
        assert result.ok, result.violations
        # Conversation relabellings are one state: 41 of the 81 states.
        assert (result.states_explored, result.edges) == (41, 656)

    def test_every_declared_transition_is_covered(self):
        # The default bounds reach all 22 rows on the live endpoint,
        # the tombstone-overflow cascade (forget-*) included.
        result = checked()
        assert result.uncovered() == []
        assert set(result.fired) == set(STATE_TABLE.by_id)

    def test_exploration_is_deterministic(self):
        first = checked()
        second = checked()
        assert first.states_explored == second.states_explored
        assert first.edges == second.edges
        assert first.fired == second.fired

    def test_larger_bounds_still_hold(self):
        # Three conversations for one token: admission is refused while
        # two others are live, and every row still fires.
        result = checked(ModelConfig(conversations=3, pool_tokens=1, tombstone_capacity=1))
        assert result.ok, result.violations
        assert result.uncovered() == []
        assert (result.states_explored, result.edges) == (176, 4048)

    def test_bad_config_is_rejected(self):
        with pytest.raises(ValueError, match="conversations"):
            ModelConfig(conversations=0)
        with pytest.raises(ValueError, match="tombstone_capacity"):
            ModelConfig(tombstone_capacity=0)


class TestSemantics:
    def test_initial_state_is_all_closed(self):
        live = LiveEndpoint(ModelConfig(conversations=3, pool_tokens=2))
        assert live.state == Snapshot(("CLOSED",) * 3, (False,) * 3, 0)

    def test_establish_acquires_the_token(self):
        live = LiveEndpoint(ModelConfig())
        step, problems = live.step("signaling-chunk", 0)
        assert problems == []
        assert [(c, t.transition_id) for c, t in step.fired] == [(0, "establish")]
        assert step.after == Snapshot(("ESTABLISHED", "CLOSED"), (True, False), 1, (0,))
        assert live.endpoint.budget.registered == 1

    def test_only_the_ack_of_a_sent_tpdu_establishes(self):
        # A stray ACK to an opened conversation that has sent nothing fires
        # no row and moves nothing; the ACK of a TPDU it sent establishes.
        live = LiveEndpoint(ModelConfig())
        live.step("local-open", 0)
        step, problems = live.step("stray-ack", 0)
        assert (problems, step.fired, step.after) == ([], (), step.before)
        assert step.after.states[0] == "ESTABLISHING"
        step, problems = live.step("ack-chunk", 0)
        assert problems == []
        assert [t.transition_id for _, t in step.fired] == ["establish-acked"]

    def test_admission_refusal_needs_exhausted_pool(self):
        live = LiveEndpoint(ModelConfig())
        live.step("signaling-chunk", 0)
        step, problems = live.step("signaling-chunk", 1)
        assert problems == []
        assert [t.transition_id for _, t in step.fired] == ["refuse-admission"]
        assert step.after.states[1] == "TOMBSTONED" and step.after.tombstones == (1,)
        assert live.endpoint.refused_evicted == 1  # the SIGNALING chunk itself

    def test_tombstone_overflow_cascades_a_forget(self):
        # Capacity 1: evicting conversation 0 while 1 is tombstoned makes
        # the FIFO forget 1 in the same step (BoundedSet.add).
        live = LiveEndpoint(ModelConfig(tombstone_capacity=1))
        walk(live, ("signaling-chunk", 0), ("signaling-chunk", 1))
        step, problems = live.step("sweep", None)
        assert problems == []
        assert [(c, t.transition_id) for c, t in step.fired] == [
            (0, "evict-idle"),
            (1, "forget-refused"),
        ]
        assert step.after == Snapshot(("EVICTED-idle", "CLOSED"), (False, False), 0, (), (0,))

    def test_a_sweep_fires_its_rows_in_connection_table_order(self):
        # One sweep evicts both conversations against a one-entry FIFO:
        # the first evicted is forgotten at once, ESTABLISHED to CLOSED.
        live = LiveEndpoint(ModelConfig())
        walk(live, ("signaling-chunk", 0), ("local-open", 1))
        step, problems = live.step("sweep", None)
        assert problems == []
        assert [(c, t.transition_id) for c, t in step.fired] == [
            (0, "evict-idle"),
            (1, "evict-unacked"),
            (0, "forget-idle"),
        ]
        assert step.after.states == ("CLOSED", "EVICTED-idle")

    def test_overflow_never_scheduled_as_free_event(self):
        assert "tombstone-overflow" not in ALPHABET
        live = LiveEndpoint(ModelConfig())
        for event in ALPHABET:
            step, _ = live.step(event, 0)
            rows = [t for _, t in step.fired]
            for number, transition in enumerate(rows):
                if transition.event == "tombstone-overflow":
                    assert any("tombstone" in t.effects for t in rows[:number])


class TestInvariants:
    def test_resurrected_tombstone_is_a_violation(self, monkeypatch):
        admit_tombstoned(monkeypatch)
        live = LiveEndpoint(ModelConfig())
        broken = walk(live, ("signaling-chunk", 0), ("sweep", None), ("signaling-chunk", 0))
        assert "tombstone-monotonic" in broken

    def test_acked_beyond_placed_is_a_violation(self, monkeypatch):
        ack_on_arrival(monkeypatch)
        live = LiveEndpoint(ModelConfig())
        assert walk(live, ("signaling-chunk", 0), ("data-chunk", 0)) == ["acked-unplaced"]

    def test_acks_are_held_to_the_current_session(self, monkeypatch):
        # The first session verifies T.ID 0 and closes; once its tombstone
        # is forgotten the C.ID's next session starts again at T.ID 0 and
        # ACKs it before verifying it.
        live = LiveEndpoint(ModelConfig())
        assert walk(live, ("signaling-chunk", 0), ("data-chunk", 0), ("cst-chunk", 0),
                    ("sweep", None), ("local-open", 1), ("sweep", None),
                    ("signaling-chunk", 0)) == []
        assert live.state.receivers == (True, False)
        ack_on_arrival(monkeypatch)
        assert walk(live, ("data-chunk", 0)) == ["acked-unplaced"]

    def test_token_leak_is_a_violation(self, monkeypatch):
        mutate(monkeypatch, ChunkEndpoint, "_evict", "self.budget.release(cid)", "pass")
        live = LiveEndpoint(ModelConfig())
        assert "token-conserved" in walk(live, ("signaling-chunk", 0), ("sweep", None))

    def test_wrong_reason_is_a_violation(self, monkeypatch):
        # An idle eviction no counter records: no reason explains it.
        mutate(monkeypatch, ConnectionTable, "evict", "self.evicted_total += 1", "pass")
        live = LiveEndpoint(ModelConfig())
        assert "reason-exclusive" in walk(live, ("local-open", 0), ("sweep", None))


class TestEdgeCheck:
    """Faults no invariant sees: only the declared row disagrees."""

    @pytest.mark.parametrize("owner, name, old, new, row, events", [
        pytest.param(  # the sweep leaves a closed connection past its linger
            ConnectionTable, "idle_connections", "if not connection.finished:",
            "if not connection.finished or connection.state is ConnectionState.CLOSED:",
            "evict-closed", [("signaling-chunk", 0), ("cst-chunk", 0), ("sweep", None)],
            id="closed-connection-lingers",
        ),
        pytest.param(  # a tombstoned C.ID's chunks are filed as never established
            ChunkEndpoint, "_refuse", "self.refused_evicted += len(chunks)",
            "self.refused_unknown += len(chunks)",
            "refuse-admission", [("signaling-chunk", 0), ("signaling-chunk", 1)],
            id="tombstoned-refusal-filed-unknown",
        ),
    ])
    def test_a_disagreeing_row_is_named_with_a_shortest_trace(
        self, monkeypatch, owner, name, old, new, row, events
    ):
        mutate(monkeypatch, owner, name, old, new)
        result = explore(stop_at_first=False)
        assert {v.invariant for v in result.violations} == {"declared-row"}
        first = result.violations[0]
        assert first.row == row
        assert [(step.event, step.conv) for step in first.trace] == events


    def test_a_stray_ack_that_establishes_is_named(self, monkeypatch):
        # handle_ack_chunk counting every T.ID an ACK names, as it once
        # did: a stray ACK ends re-signalling and establishes.
        handle = ReliableSender.handle_ack_chunk

        def counts_every_t_id(self, chunk):
            before = self.acks_received
            handle(self, chunk)
            self.acks_received = before + len(parse_ack_chunk(chunk))
            self._signal = None

        monkeypatch.setattr(ReliableSender, "handle_ack_chunk", counts_every_t_id)
        result = explore(stop_at_first=False)
        assert {v.invariant for v in result.violations} == {"declared-row"}
        first = result.violations[0]
        assert first.row == "" and first.message.startswith("stray-ack, no row: ")
        assert [(step.event, step.conv) for step in first.trace] == [
            ("local-open", 0), ("stray-ack", 0)
        ]

    def test_overlapping_guards_are_named(self, monkeypatch):
        # A second signalling row out of CLOSED whose guard holds with
        # establish's: the checker names it instead of taking the first.
        extra = Transition("establish-twice", CLOSED, "signaling-chunk", CLOSED,
                           guard="receiver-admissible")
        monkeypatch.setattr(modelcheck, "STATE_TABLE", StateTable(
            STATE_TABLE.states, STATE_TABLE.initial, STATE_TABLE.transitions + (extra,)))
        violation = explore().violations[0]
        assert (violation.invariant, violation.row) == ("declared-row", "establish-twice")
        assert "overlaps establish's" in violation.message
        assert [(step.event, step.conv) for step in violation.trace] == [("signaling-chunk", 0)]


class TestInjectedResurrection:
    def test_injection_produces_shortest_counterexample(self, resurrection):
        violation = resurrection
        assert violation.invariant == "tombstone-monotonic"
        assert "resurrected" in violation.message
        # The admission needs a free token, and with a one-entry FIFO an
        # admission-refused C.ID is forgotten the moment the token holder
        # is evicted: the shortest resurrection is of an evicted C.ID.
        assert [(step.event, step.conv) for step in violation.trace] == [
            ("signaling-chunk", 0), ("sweep", None), ("signaling-chunk", 0),
        ]
        assert [t.transition_id for s in violation.trace for _, t in s.fired] == [
            "establish", "evict-idle",
        ]
        assert violation.state.states[0] == "ESTABLISHED" and violation.state.tombstones == (0,)

    def test_counterexample_roundtrips_through_perfetto(self, resurrection, tmp_path):
        path = write_counterexample(resurrection, tmp_path / "cex.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "flight-meta"
        assert lines[0]["trigger"] == "modelcheck"
        assert lines[0]["tag"] == "tombstone-monotonic"
        trace = journeys_to_trace(lines)
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        instants = [e for e in events if e.get("ph") == "i"]
        # The declared rows by id, then the resurrecting SIGNALING chunk,
        # which no row declares, by its event.
        assert [e["name"] for e in instants] == ["establish", "evict-idle", "signaling-chunk"]
        assert [(e["pid"], e["args"]["from"], e["args"]["to"]) for e in instants] == [
            (0, "CLOSED", "ESTABLISHED"),
            (0, "ESTABLISHED", "EVICTED-idle"),
            (0, "EVICTED-idle", "ESTABLISHED"),
        ]

    def test_counterexample_dump_is_deterministic(self, resurrection, tmp_path):
        first = write_counterexample(resurrection, tmp_path / "a.jsonl").read_text()
        again = explore().violations[0]
        second = write_counterexample(again, tmp_path / "b.jsonl").read_text()
        assert first == second
        for line in first.splitlines():
            assert json.loads(line) is not None

    def test_records_reference_the_table_rows(self, resurrection):
        records = counterexample_records(resurrection)
        provenance = [r for r in records if r["kind"] == "provenance"]
        assert [r["fields"]["transition"] for r in provenance] == [
            "establish", "evict-idle", None,
        ]
        for record in provenance:
            assert record["level"] == "conn"
            line = record["fields"]["table_line"]
            assert isinstance(line, int)
            assert (line > 0) == (record["fields"]["transition"] is not None)

    def test_a_violation_goes_to_the_flight_dir(self, monkeypatch, tmp_path):
        admit_tombstoned(monkeypatch)
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        assert not checked().ok
        # The resurrecting edge breaks the invariant, and moves a
        # conversation where the table has no row.
        dumps = sorted(path.name for path in tmp_path.glob("*.jsonl"))
        assert dumps == [
            "modelcheck-000-tombstone-monotonic.jsonl",
            "modelcheck-001-declared-row.jsonl",
        ]
