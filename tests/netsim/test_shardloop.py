"""Merged-heap composition: N member loops, one heap, one clock."""

from __future__ import annotations

import pytest

from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop


class TestEventLoopPrimitives:
    def test_next_event_time_peeks_without_dispatching(self):
        loop = EventLoop()
        assert loop.next_event_time() is None
        loop.at(2.0, lambda: None)
        loop.at(1.0, lambda: None)
        assert loop.next_event_time() == 1.0
        assert loop.events_processed == 0


class TestShardedLoop:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError):
            ShardedLoop(members=0)

    def test_delegates_scheduling_to_the_primary(self):
        loop = ShardedLoop()
        ran: list[str] = []
        loop.schedule(0.5, lambda: ran.append("a"))
        loop.at(0.25, lambda: ran.append("b"))
        assert loop.member(0).pending() == 2
        loop.run()
        assert ran == ["b", "a"]
        assert loop.now == 0.5

    def test_add_member_joins_at_the_global_now(self):
        loop = ShardedLoop()
        loop.at(1.0, lambda: None)
        loop.run()
        member = loop.add_member()
        assert member.now == loop.now == 1.0

    def test_lockstep_order_is_global_time_then_member_index(self):
        loop = ShardedLoop()
        first = loop.add_member()
        second = loop.add_member()
        order: list[str] = []
        second.at(1.0, lambda: order.append("second@1"))
        first.at(1.0, lambda: order.append("first@1"))
        first.at(2.0, lambda: order.append("first@2"))
        loop.at(0.5, lambda: order.append("primary@0.5"))
        loop.run()
        assert order == ["primary@0.5", "first@1", "second@1", "first@2"]
        # Every member's clock ends at the global now.
        assert {member.now for member in loop.members} == {2.0}

    def test_equal_time_events_dispatch_by_member_then_schedule_order(self):
        loop = ShardedLoop(members=3)
        order: list[str] = []
        # Scheduled in the reverse of the order they must run in.
        for member in (2, 1, 0):
            for tag in "ab":
                loop.member(member).at(1.0, lambda m=member, t=tag: order.append(f"{m}{t}"))
        loop.run()
        assert order == ["0a", "0b", "1a", "1b", "2a", "2b"]

    def test_event_scheduled_now_on_an_earlier_member_runs_next(self):
        loop = ShardedLoop(members=3)
        order: list[str] = []

        def on_member_two() -> None:
            order.append("2:first")
            loop.member(0).schedule(0.0, lambda: order.append("0:now"))

        loop.member(2).at(1.0, on_member_two)
        loop.member(2).at(1.0, lambda: order.append("2:second"))
        loop.member(1).at(1.5, lambda: order.append("1:later"))
        loop.run()
        # Member 0 outranks member 2's own next event at the same time.
        assert order == ["2:first", "0:now", "2:second", "1:later"]

    def test_run_on_any_member_drains_the_shared_heap(self):
        loop = ShardedLoop(members=2)
        ran: list[int] = []
        loop.member(0).at(1.0, lambda: ran.append(0))
        loop.member(1).at(2.0, lambda: ran.append(1))
        assert loop.member(1).run() == 2.0
        assert ran == [0, 1]
        assert [member.events_processed for member in loop.members] == [1, 1]

    def test_members_advance_together_so_cross_scheduling_works(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        ran: list[float] = []

        def from_primary() -> None:
            # A callback on the primary may schedule on a shard member
            # relative to *its* clock — there is only the one clock.
            shard.schedule(0.5, lambda: ran.append(loop.now))

        loop.at(1.0, from_primary)
        loop.run()
        assert ran == [1.5]

    def test_run_until_advances_every_member_clock(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        shard.at(10.0, lambda: None)
        loop.run(until=3.0)
        assert loop.now == 3.0
        assert shard.now == 3.0
        assert shard.pending() == 1
        assert loop.member(0).pending() == 0
        # Scheduling relative to "now" on either member starts from 3.0.
        seen: list[float] = []
        loop.schedule(1.0, lambda: seen.append(loop.now))
        shard.schedule(2.0, lambda: seen.append(shard.now))
        loop.run(until=6.0)
        assert seen == [4.0, 5.0]
        assert loop.now == shard.now == 6.0

    def test_pending_and_events_processed_aggregate(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        loop.at(1.0, lambda: None)
        shard.at(1.0, lambda: None)
        assert loop.pending() == 2
        loop.run()
        assert loop.pending() == 0
        assert loop.events_processed == 2
