"""The lifecycle model checker: exhaustive exploration, fault injection,
counterexample traces, and the Perfetto round-trip.

ISSUE 9 acceptance, dynamic half: the declared FSM has zero violations
over the bounded interleaving space, while injecting the undeclared
resurrection of a tombstoned C.ID produces a counterexample trace that
renders through :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.modelcheck import (
    ConvState,
    GlobalState,
    ModelConfig,
    apply_step,
    check_invariants,
    counterexample_records,
    enabled,
    explore,
    initial_state,
    injected_resurrection,
    main,
    with_transition,
    write_counterexample,
)
from repro.core.state_table import STATE_TABLE
from repro.obs.perfetto import journeys_to_trace


class TestCleanExploration:
    def test_declared_fsm_has_no_violations(self):
        result = explore()
        assert result.ok, result.violations
        assert result.states_explored > 100
        assert result.edges > result.states_explored

    def test_every_declared_transition_is_covered(self):
        # Exhaustiveness: the default bounds reach all 22 transitions,
        # including the tombstone-overflow cascade (forget-*).
        result = explore()
        assert result.uncovered(STATE_TABLE) == []
        assert set(result.fired) == set(STATE_TABLE.by_id)

    def test_exploration_is_deterministic(self):
        first = explore()
        second = explore()
        assert first.states_explored == second.states_explored
        assert first.edges == second.edges
        assert first.fired == second.fired

    def test_larger_bounds_still_hold(self):
        config = ModelConfig(
            conversations=2, pool_tokens=2, placement_cap=2, tombstone_capacity=2
        )
        result = explore(config=config)
        assert result.ok, result.violations

    def test_bad_config_is_rejected(self):
        with pytest.raises(ValueError, match="conversations"):
            ModelConfig(conversations=0)
        with pytest.raises(ValueError, match="tombstone_capacity"):
            ModelConfig(tombstone_capacity=0)


class TestSemantics:
    def test_initial_state_is_all_closed(self):
        config = ModelConfig(conversations=3, pool_tokens=2)
        state = initial_state(config)
        assert state.tokens == 2
        assert all(conv == ConvState() for conv in state.convs)
        assert state.tombstones == ()

    def test_establish_acquires_the_token(self):
        config = ModelConfig()
        state = initial_state(config)
        establish = STATE_TABLE.by_id["establish"]
        successor, steps = apply_step(state, 0, establish, STATE_TABLE, config)
        assert successor.tokens == 0
        assert successor.convs[0].state == "ESTABLISHED"
        assert successor.convs[0].token is True
        assert [s.transition.transition_id for s in steps] == ["establish"]

    def test_admission_refusal_needs_exhausted_pool(self):
        config = ModelConfig()
        state = initial_state(config)
        ids = {t.transition_id for _, t in enabled(state, STATE_TABLE, config)}
        assert "establish" in ids and "refuse-admission" not in ids
        drained = GlobalState(convs=state.convs, tokens=0)
        ids = {t.transition_id for _, t in enabled(drained, STATE_TABLE, config)}
        assert "refuse-admission" in ids and "establish" not in ids

    def test_tombstone_overflow_cascades_a_forget(self):
        # Capacity 1: evicting conv 0 while conv 1 is tombstoned forces
        # the FIFO to forget conv 1 in the same step (BoundedSet.add).
        config = ModelConfig(tombstone_capacity=1)
        convs = (
            ConvState(state="ESTABLISHED", token=True),
            ConvState(state="TOMBSTONED", reason="refused"),
        )
        state = GlobalState(convs=convs, tokens=0, tombstones=(1,))
        evict = STATE_TABLE.by_id["evict-idle"]
        successor, steps = apply_step(state, 0, evict, STATE_TABLE, config)
        assert [s.transition.transition_id for s in steps] == [
            "evict-idle",
            "forget-refused",
        ]
        assert successor.convs[1] == ConvState()
        assert successor.tombstones == (0,)
        assert successor.tokens == 1  # released by the eviction

    def test_overflow_never_scheduled_as_free_event(self):
        config = ModelConfig()
        convs = (ConvState(state="TOMBSTONED", reason="refused"), ConvState())
        state = GlobalState(convs=convs, tokens=1, tombstones=(0,))
        for _, transition in enabled(state, STATE_TABLE, config):
            assert transition.event != "tombstone-overflow"


class TestInvariants:
    def test_resurrected_tombstone_is_a_violation(self):
        convs = (ConvState(state="ESTABLISHED", reason="refused"),)
        state = GlobalState(convs=convs, tokens=1, tombstones=(0,))
        names = {name for name, _ in check_invariants(state, ModelConfig(conversations=1))}
        assert "tombstone-monotonic" in names

    def test_acked_beyond_placed_is_a_violation(self):
        convs = (ConvState(state="ESTABLISHED", placed=1, acked=2, token=True),)
        state = GlobalState(convs=convs, tokens=0)
        names = {name for name, _ in check_invariants(state, ModelConfig(conversations=1))}
        assert "acked-unplaced" in names

    def test_token_leak_is_a_violation(self):
        convs = (ConvState(state="ESTABLISHED", token=True),)
        state = GlobalState(convs=convs, tokens=1)  # 1 free + 1 held > pool of 1
        names = {name for name, _ in check_invariants(state, ModelConfig(conversations=1))}
        assert "token-conserved" in names

    def test_wrong_reason_is_a_violation(self):
        convs = (
            ConvState(state="EVICTED-stalled", reason="idle"),
            ConvState(),
        )
        state = GlobalState(convs=convs, tokens=1, tombstones=(0,))
        names = {name for name, _ in check_invariants(state, ModelConfig())}
        assert "reason-exclusive" in names


class TestInjectedResurrection:
    def test_injection_produces_shortest_counterexample(self):
        table = with_transition(STATE_TABLE, injected_resurrection())
        result = explore(table)
        assert not result.ok
        violation = result.violations[0]
        assert violation.invariant == "tombstone-monotonic"
        assert "resurrected" in violation.message
        # BFS yields the minimal trace: establish (drains the pool),
        # refuse-admission (tombstones conv 1), bad-resurrect.
        assert [s.transition.transition_id for s in violation.trace] == [
            "establish",
            "refuse-admission",
            "bad-resurrect",
        ]

    def test_counterexample_roundtrips_through_perfetto(self, tmp_path):
        table = with_transition(STATE_TABLE, injected_resurrection())
        violation = explore(table).violations[0]
        path = write_counterexample(violation, tmp_path / "cex.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "flight-meta"
        assert lines[0]["trigger"] == "modelcheck"
        assert lines[0]["tag"] == "tombstone-monotonic"
        trace = journeys_to_trace(lines)
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        instants = [e for e in events if e.get("ph") == "i"]
        assert [e["name"] for e in instants] == [
            s.transition.transition_id for s in violation.trace
        ]
        # Each instant carries the declared edge, so the timeline reads
        # as the exact state walk.
        for instant, step in zip(instants, violation.trace):
            assert instant["args"]["from"] == step.transition.src
            assert instant["args"]["to"] == step.transition.dst
            assert instant["pid"] == step.conv

    def test_counterexample_dump_is_deterministic(self, tmp_path):
        table = with_transition(STATE_TABLE, injected_resurrection())
        violation = explore(table).violations[0]
        first = write_counterexample(violation, tmp_path / "a.jsonl").read_text()
        second = write_counterexample(violation, tmp_path / "b.jsonl").read_text()
        assert first == second
        for line in first.splitlines():
            assert json.loads(line) is not None

    def test_records_reference_the_table_rows(self):
        table = with_transition(STATE_TABLE, injected_resurrection())
        violation = explore(table).violations[0]
        records = counterexample_records(violation)
        provenance = [r for r in records if r["kind"] == "provenance"]
        assert provenance
        for record in provenance:
            assert record["level"] == "conn"
            fields = record["fields"]
            assert isinstance(fields["table_line"], int)


class TestMain:
    def test_clean_run_exits_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "22/22 transitions covered" in out

    def test_injected_run_writes_counterexample_and_exits_one(self, tmp_path, capsys):
        rc = main(["--inject-resurrection", "--counterexample", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "VIOLATION [tombstone-monotonic]" in out
        dumps = sorted(tmp_path.glob("*.jsonl"))
        assert len(dumps) == 1
        assert "tombstone-monotonic" in dumps[0].name
