"""Unit and property tests for the attack machinery itself.

The generators must be trustworthy before the invariant harness can
mean anything: a forged chunk that accidentally matches the original
bytes, or a reorder policy that schedules into the past, would make the
attack suites vacuous.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bounded import BoundedSet
from repro.core.packet import Packet
from repro.netsim.adversary import (
    OVERLAP_KINDS,
    AlmostSortedReorder,
    FrameFlood,
    InterruptCoalescingReorder,
    OverlapRewriter,
)
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from tests.helpers import make_chunk


# ----------------------------------------------------------------------
# OverlapRewriter
# ----------------------------------------------------------------------


@given(
    sn=st.integers(min_value=0, max_value=64),
    units=st.integers(min_value=1, max_value=16),
    size=st.sampled_from([1, 2]),
    kind=st.sampled_from(OVERLAP_KINDS),
    seed=st.integers(min_value=0, max_value=999),
)
def test_forged_chunk_overlaps_and_always_disagrees(sn, units, size, kind, seed):
    chunk = make_chunk(units=units, size=size, c_sn=sn, t_sn=sn, x_sn=sn, seed=seed)
    rewriter = OverlapRewriter(
        deliver=lambda _: None, rng=substream(seed, "forge")
    )
    forged = rewriter.forge(chunk, kind)

    # Wire-valid: survives an encode/decode round trip unchanged.
    assert Packet.decode(Packet(chunks=[forged]).encode()).chunks == [forged]

    # The forged C-range intersects the genuine range...
    lo = max(forged.c.sn, chunk.c.sn)
    hi = min(forged.c.sn + forged.length, chunk.c.sn + chunk.length)
    assert lo < hi, f"{kind} forgery does not overlap the original"

    # ...and every overlapping unit's bytes differ (the inconsistency).
    unit_bytes = chunk.unit_bytes
    for unit in range(lo, hi):
        real = chunk.payload[
            (unit - chunk.c.sn) * unit_bytes : (unit - chunk.c.sn + 1) * unit_bytes
        ]
        fake = forged.payload[
            (unit - forged.c.sn) * unit_bytes : (unit - forged.c.sn + 1) * unit_bytes
        ]
        assert real != fake

    # Framing levels stay self-consistent: the forged tuples keep the
    # original C/T/X deltas, so per-chunk checks cannot reject it.
    shift = forged.c.sn - chunk.c.sn
    assert forged.t.sn - chunk.t.sn == shift
    assert forged.x.sn - chunk.x.sn == shift


def test_rewriter_forges_per_data_chunk_and_orders_frames():
    seen: list[bytes] = []
    rewriter = OverlapRewriter(deliver=seen.append, rng=substream(1, "order"))
    genuine = Packet(chunks=[make_chunk(units=4)]).encode()
    rewriter.send(genuine)
    assert len(seen) == 2 and seen[0] == genuine  # forge-after by default

    seen.clear()
    first = OverlapRewriter(
        deliver=seen.append, forge_first=True, rng=substream(1, "order2")
    )
    first.send(genuine)
    assert len(seen) == 2 and seen[1] == genuine  # poison-first variant


def test_rewriter_ignores_undecodable_and_non_data_frames():
    seen: list[bytes] = []
    rewriter = OverlapRewriter(deliver=seen.append, rng=substream(1, "skip"))
    rewriter.send(b"not a packet")
    assert seen == [b"not a packet"]
    assert rewriter.stats.undecodable_frames == 1
    assert rewriter.stats.forged_chunks == 0


def test_rewriter_rejects_bad_configuration():
    with pytest.raises(ValueError):
        OverlapRewriter(deliver=lambda _: None, kinds=("bogus",))
    with pytest.raises(ValueError):
        OverlapRewriter(deliver=lambda _: None, taint=0)


def test_attack_rate_zero_never_forges():
    seen: list[bytes] = []
    rewriter = OverlapRewriter(
        deliver=seen.append, attack_rate=0.0, rng=substream(1, "rate")
    )
    frame = Packet(chunks=[make_chunk()]).encode()
    for _ in range(20):
        rewriter.send(frame)
    assert len(seen) == 20
    assert rewriter.stats.forged_chunks == 0


# ----------------------------------------------------------------------
# Reorder policies
# ----------------------------------------------------------------------


@given(
    nominal=st.floats(min_value=0.0, max_value=10.0),
    now=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=99),
)
def test_almost_sorted_never_schedules_into_the_past(nominal, now, seed):
    policy = AlmostSortedReorder(rng=substream(seed, "almost"))
    release = policy.release_time(nominal, now)
    assert release >= now
    assert release >= nominal or release == now
    assert release <= max(nominal, now) + policy.max_skew


def test_almost_sorted_displaces_roughly_its_configured_fraction():
    policy = AlmostSortedReorder(
        displacement_rate=0.25, rng=substream(7, "fraction")
    )
    for index in range(1000):
        policy.release_time(index * 0.001, 0.0)
    assert 150 <= policy.displaced <= 350


def test_interrupt_coalescing_inverts_within_a_window():
    policy = InterruptCoalescingReorder(window=0.001)
    releases = [policy.release_time(0.0001 * (i + 1), 0.0) for i in range(8)]
    # All coalesced to the same boundary, released newest-first.
    assert all(0.001 <= r < 0.002 for r in releases)
    assert releases == sorted(releases, reverse=True)
    assert len(set(releases)) == len(releases)


def test_interrupt_coalescing_without_inversion_is_pure_batching():
    policy = InterruptCoalescingReorder(window=0.001, invert=False)
    releases = [policy.release_time(0.0001 * (i + 1), 0.0) for i in range(8)]
    assert set(releases) == {0.001}


def test_interrupt_coalescing_windows_do_not_interleave():
    policy = InterruptCoalescingReorder(window=0.001)
    first_window = [policy.release_time(0.0001 * (i + 1), 0.0) for i in range(5)]
    second_window = [policy.release_time(0.001 + 0.0001 * (i + 1), 0.0) for i in range(5)]
    assert max(first_window) < min(second_window)


def test_link_reorder_seam_delivers_out_of_order():
    loop = EventLoop()
    arrived: list[bytes] = []
    link = Link(
        loop,
        arrived.append,
        rate_bps=1e9,
        delay=0.0001,
        rng=substream(3, "link"),
        reorder=InterruptCoalescingReorder(window=0.01),
    )
    frames = [bytes([i]) * 64 for i in range(6)]
    for frame in frames:
        link.send(frame)
    loop.run()
    assert sorted(arrived, key=frames.index) == frames
    assert arrived == frames[::-1]  # one window, LIFO release
    assert link.stats.frames_delivered == 6


def test_link_clamps_policy_times_to_the_present():
    class PastPolicy:
        def release_time(self, nominal: float, now: float) -> float:
            return -5.0  # hostile policy: try to schedule into the past

    loop = EventLoop()
    arrived: list[bytes] = []
    link = Link(loop, arrived.append, rng=substream(3, "clamp"), reorder=PastPolicy())
    link.send(b"x" * 32)
    loop.run()
    assert arrived == [b"x" * 32]


# ----------------------------------------------------------------------
# FrameFlood
# ----------------------------------------------------------------------


def test_flood_injects_exactly_count_frames_at_its_pace():
    loop = EventLoop()
    arrivals: list[tuple[float, bytes]] = []
    flood = FrameFlood(
        loop,
        lambda frame: arrivals.append((loop.now, frame)),
        frames=lambda i: bytes([i % 256]),
        interval=0.01,
        count=5,
    )
    flood.launch()
    loop.run()
    assert [f for _, f in arrivals] == [bytes([i]) for i in range(5)]
    times = [t for t, _ in arrivals]
    assert times == [pytest.approx(0.01 * i) for i in range(5)]
    assert flood.injected == 5


def test_flood_stops_when_the_factory_returns_none():
    loop = EventLoop()
    sent: list[bytes] = []
    flood = FrameFlood(
        loop,
        sent.append,
        frames=lambda i: bytes([i]) if i < 3 else None,
        interval=0.001,
        count=100,
    )
    flood.launch()
    loop.run()
    assert len(sent) == 3
    assert flood.stopped


# ----------------------------------------------------------------------
# BoundedSet (the tombstone container the floods grind against)
# ----------------------------------------------------------------------


@given(keys=st.lists(st.integers(min_value=0, max_value=50), max_size=200))
def test_bounded_set_never_exceeds_its_cap(keys):
    bounded = BoundedSet(max_entries=8)
    for key in keys:
        bounded.add(key)
        assert len(bounded) <= 8
    distinct = len(set(keys))
    assert bounded.dropped == max(distinct - 8, 0) if distinct <= 8 else True
    assert len(bounded) == min(distinct, 8)


def test_bounded_set_drops_oldest_first_and_counts():
    bounded = BoundedSet(max_entries=3)
    for key in (1, 2, 3, 4):
        bounded.add(key)
    assert 1 not in bounded
    assert all(k in bounded for k in (2, 3, 4))
    assert bounded.dropped == 1


def test_bounded_set_readding_does_not_refresh_age():
    bounded = BoundedSet(max_entries=3)
    for key in (1, 2, 3):
        bounded.add(key)
    bounded.add(1)  # replay: must not move 1 to the back of the queue
    bounded.add(4)
    assert 1 not in bounded


def test_bounded_set_discard_and_validation():
    bounded = BoundedSet(max_entries=2)
    bounded.add("a")
    bounded.discard("a")
    bounded.discard("missing")
    assert not bounded
    assert list(bounded) == []
    with pytest.raises(ValueError):
        BoundedSet(max_entries=0)
