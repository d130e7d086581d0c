"""Several event loops on one heap and one clock.

A sharded endpoint gives every worker shard its own
:class:`~repro.netsim.events.EventLoop` so shard state never races, but
the simulation still needs one global order.  :class:`ShardedLoop`
composes N member loops that share a single heap keyed
``(time, member, seq)`` and a single clock: events run by time, ties
broken by member index and then by schedule order within the member.
Replaying the same seed therefore replays the same global event order
regardless of how work is distributed across shards, and dispatching
an event costs the same however many members there are.

Member 0 is the primary (network) loop: :meth:`at`, :meth:`schedule`
and :meth:`run` delegate to it, so a ``ShardedLoop`` can stand in for a
plain ``EventLoop`` anywhere a driver only schedules and runs.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.events import EventLoop

__all__ = ["ShardedLoop"]


class ShardedLoop:
    """N event loops advancing under one clock, one event at a time."""

    def __init__(self, members: int = 1) -> None:
        if members < 1:
            raise ValueError(f"need at least one member loop (members={members})")
        self._members: list[EventLoop] = [EventLoop()]
        for _ in range(members - 1):
            self.add_member()

    # -- membership ----------------------------------------------------
    @property
    def members(self) -> tuple[EventLoop, ...]:
        return tuple(self._members)

    def member(self, index: int) -> EventLoop:
        return self._members[index]

    def add_member(self) -> EventLoop:
        """Create, register, and return a new member loop."""
        loop = self._members[0].add_member()
        self._members.append(loop)
        return loop

    # -- EventLoop-compatible surface ----------------------------------
    @property
    def now(self) -> float:
        return self._members[0].now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* at ``now + delay`` on the primary loop."""
        self._members[0].schedule(delay, callback)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute *time* on the primary loop."""
        self._members[0].at(time, callback)

    def run(self, until: float | None = None) -> float:
        """Process every member's events (optionally up to *until*).

        Returns the global simulated time after the last processed event.
        """
        return self._members[0].run(until)

    def pending(self) -> int:
        return sum(member.pending() for member in self._members)

    @property
    def events_processed(self) -> int:
        return sum(member.events_processed for member in self._members)
