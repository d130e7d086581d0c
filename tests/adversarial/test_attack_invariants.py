"""The invariant harness: every attack scenario, every invariant.

Each property drives a full adversarial scenario (honest conversations
sharing an endpoint pair with a seeded attacker) and asserts the four
invariants via :func:`repro.app.adversarial.check_invariants`:

1. no acknowledged-but-unplaced bytes,
2. bounded pool/tombstone/negative-cache memory,
3. inconsistent overlaps detected (never silently resolved),
4. honest peers complete with Jain fairness >= 0.8.

Scenarios are pure functions of their seed, so any failure here is a
replayable counterexample.  The heavyweight properties bound their own
example counts (a scenario is a whole simulation run); the targeted
regression tests below each pin one scenario-specific behavior.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.adversarial import (
    SCENARIOS,
    check_invariants,
    jain_fairness,
    run_cid_churn,
    run_gap_liar,
    run_overlap_attack,
    run_reorder_attack,
    run_signaling_storm,
    run_slow_loris,
)

seeds = st.integers(min_value=0, max_value=2**16)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_every_scenario_upholds_the_invariants(scenario, seed):
    check_invariants(SCENARIOS[scenario](seed))


# ----------------------------------------------------------------------
# Scenario-specific teeth
# ----------------------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_forge_after_overlaps_are_all_detected_and_harmless(seed):
    report = run_overlap_attack(seed, forge_first=False)
    # The genuine bytes land first, so every forgery must surface as an
    # overlap conflict and every conversation still completes.
    assert report.extra["forged_chunks"] > 0
    assert report.detections["overlap_conflicts"] > 0
    assert all(o.complete for o in report.outcomes)


@settings(max_examples=6, deadline=None)
@given(seed=seeds)
def test_poison_first_is_denial_of_service_never_silent_corruption(seed):
    report = run_overlap_attack(seed, forge_first=True)
    assert report.detected() > 0
    for outcome in report.outcomes:
        if outcome.complete:
            continue
        # An incomplete conversation must be *visibly* incomplete: its
        # sender is still retrying, gave up, or was refused — the one
        # forbidden state is a clean finish over corrupted bytes.
        assert (
            not outcome.sender_finished
            or outcome.sender_gave_up > 0
            or not outcome.launched
        ), f"conversation {outcome.spec.connection_id} silently corrupted"


@settings(max_examples=4, deadline=None)
@given(seed=seeds, model=st.sampled_from(["almost-sorted", "coalescing"]))
def test_pathological_reorder_never_costs_a_byte(seed, model):
    report = run_reorder_attack(seed, model)
    assert all(o.complete for o in report.outcomes)
    assert jain_fairness(report.honest_shares()) == pytest.approx(1.0)


@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_gap_report_lies_are_refused_counted_and_never_resent(seed):
    report = run_gap_liar(seed)
    # Per ACK chunk one unsent T.ID, per TPDU acknowledged a range past
    # its end and a gap in it once acknowledged: all refused, all counted.
    assert report.attack_frames > 0
    assert report.extra["gap_reports_refused"] == report.extra["gap_lies"] > 0
    assert report.extra["resent"] == 0
    assert all(o.complete for o in report.outcomes)


@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_signaling_storm_leaves_no_lasting_state(seed):
    report = run_signaling_storm(seed, storm_frames=300)
    assert report.attack_frames == 300
    assert all(o.complete for o in report.outcomes)
    # Sweeps reclaimed the storm's connection carcasses...
    assert report.stats["active_connections"] <= len(report.outcomes)
    # ...into the (bounded) tombstone set, and the pool shed their
    # registrations entirely.
    assert report.stats["evicted_total"] >= 300
    assert report.stats["tombstones"] <= report.tombstone_cap
    assert report.stats["budget_reserved"] == 0


@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_cid_churn_cannot_grow_the_tombstone_set_past_its_cap(seed):
    report = run_cid_churn(seed, churn_cycles=200, tombstone_cap=64)
    assert report.stats["tombstones"] <= 64
    # Far more identifiers were churned than the cap holds: the FIFO
    # actually dropped (and counted) the overflow.
    assert report.extra["tombstones_dropped"] > 0
    assert all(o.complete for o in report.outcomes)


def test_sharded_cid_churn_divides_the_tombstone_bound_not_multiplies_it():
    # N per-shard tombstone FIFOs must share the endpoint-wide bound:
    # churn far more attacker identifiers than the bound holds and check
    # total tombstone memory never reaches N x cap.
    from repro.app.adversarial import ATTACKER_CID_BASE, _attacker_data_chunk
    from repro.core.packet import Packet
    from repro.netsim.shardloop import ShardedLoop
    from repro.transport.connection import ConnectionConfig, build_signaling_chunk
    from repro.transport.shard import ShardedEndpoint

    shards, cap, cycles = 4, 64, 300
    loop = ShardedLoop()
    receiver = ShardedEndpoint(
        loop, shards=shards, idle_timeout=0.05, close_linger=0.02,
        tombstone_capacity=cap,
    )
    receiver.transmit = lambda frame: None  # attacker never reads acks

    def churn(index: int):
        cid = ATTACKER_CID_BASE + index
        frame = Packet(
            chunks=[
                build_signaling_chunk(ConnectionConfig(connection_id=cid)),
                _attacker_data_chunk(cid, 0, close=True),
            ]
        ).encode()
        return lambda: receiver.receive_packet(frame)

    for index in range(cycles):
        loop.at(index * 2e-4, churn(index))
    horizon = cycles * 2e-4 + 2.0
    for tick in range(1, int(horizon / 0.05) + 1):
        loop.at(tick * 0.05, lambda: receiver.sweep())
    loop.run()
    receiver.sweep(now=loop.now + 1.0)

    shard_cap = -(-cap // shards)
    sizes = [len(s.endpoint.table.evicted_ids) for s in receiver.shards]
    caps = [s.endpoint.table.evicted_ids.max_entries for s in receiver.shards]
    assert caps == [shard_cap] * shards
    assert all(size <= shard_cap for size in sizes)
    # The endpoint-wide memory bound held (cap divides evenly here, so
    # no rounding slack) even though every shard's FIFO overflowed.
    assert sum(sizes) <= cap
    evicted_total = sum(s.endpoint.table.evicted_total for s in receiver.shards)
    assert evicted_total == cycles
    assert all(s.endpoint.table.evicted_ids.dropped > 0 for s in receiver.shards)


@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_slow_loris_tricklers_are_evicted_on_throughput_grounds(seed):
    report = run_slow_loris(seed)
    # Idle eviction cannot catch them (they are never idle); progress
    # policing must, and the honest conversations must then complete.
    assert report.extra["stalled_evictions"] > 0
    assert all(o.complete for o in report.outcomes)
    assert report.honest_fairness() >= 0.8


def test_jain_fairness_definition():
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0, 0]) == 1.0
    assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
    assert jain_fairness([9, 0, 0]) == pytest.approx(1 / 3)
    assert 0.8 < jain_fairness([4, 5, 6]) < 1.0
