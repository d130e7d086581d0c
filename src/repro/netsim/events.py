"""A minimal discrete-event scheduler.

Everything in :mod:`repro.netsim` — link serialization, propagation,
router forwarding, multipath skew — is expressed as callbacks scheduled
on one :class:`EventLoop`.  Simulated time is a float in seconds.

Several loops can share one heap and one clock (:meth:`EventLoop.
add_member`; :class:`repro.netsim.shardloop.ShardedLoop` is the
composer): heap entries are keyed ``(time, member, seq)``, so the
dispatch loop in :meth:`EventLoop.run` is the only one there is, and a
lone loop is simply the one-member case.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.obs import Tallies
from repro.obs import runtime as obs_runtime

__all__ = ["EventLoop"]

#: Read off the shared timeline: a run's growth of the clock is the
#: simulated time it advanced.
_TALLIES = Tallies({
    "dispatched": ("netsim", "loop.events_processed", "event-loop callbacks run"),
    "now": ("netsim", "loop.sim_time_total", "simulated seconds advanced across run() calls"),
})


class _Timeline:
    """The heap and the clock that every member loop of one simulation shares."""

    __slots__ = ("queue", "now", "members", "dispatched")

    def __init__(self) -> None:
        #: ``(time, member, seq, callback, owner)`` — the first three
        #: fields are unique, so a comparison never reaches the callback.
        self.queue: list[tuple[float, int, int, Callable[[], None], EventLoop]] = []
        self.now = 0.0
        self.members = 0
        #: callbacks run by every member's :meth:`EventLoop.run`.
        self.dispatched = 0


class EventLoop:
    """Priority-queue event loop with stable FIFO ordering at equal times.

    A loop made by :meth:`add_member` pushes onto the same heap and reads
    the same clock as the loop it came from; equal-time events then run
    in member order (the first loop is member 0), and in schedule order
    within a member.  :meth:`run` on any member drains the shared heap.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._processed = 0
        self._join(_Timeline())

    def _join(self, timeline: _Timeline) -> None:
        self._timeline = timeline
        self._member = timeline.members
        timeline.members += 1

    def add_member(self) -> "EventLoop":
        """A new loop on this loop's heap and clock, last in tie-break order."""
        loop = EventLoop()
        loop._join(self._timeline)
        return loop

    @property
    def now(self) -> float:
        return self._timeline.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.at(self._timeline.now + delay, callback)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated *time*."""
        timeline = self._timeline
        if time < timeline.now:
            raise ValueError(f"cannot schedule at {time} < now {timeline.now}")
        heapq.heappush(timeline.queue, (time, self._member, next(self._counter), callback, self))

    def run(self, until: float | None = None) -> float:
        """Process events (optionally only up to time *until*).

        Returns the simulated time after the last processed event.
        """
        timeline = self._timeline
        queue = timeline.queue
        before = _TALLIES.read(timeline) if obs_runtime._registry is not None else None
        try:
            while queue:
                time, _, _, callback, owner = queue[0]
                if until is not None and time > until:
                    timeline.now = until
                    break
                heapq.heappop(queue)
                timeline.now = time
                owner._processed += 1
                timeline.dispatched += 1
                callback()
            return timeline.now
        finally:
            if before is not None:
                _TALLIES.publish(before, timeline)

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` when idle."""
        queue = self._timeline.queue
        return queue[0][0] if queue else None

    def pending(self) -> int:
        """Events this loop has scheduled that have not yet run."""
        return sum(entry[4] is self for entry in self._timeline.queue)

    @property
    def events_processed(self) -> int:
        return self._processed
