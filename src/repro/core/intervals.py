"""Interval sets over non-negative integers.

The workhorse of *virtual reassembly* (Section 3.3): "keeping track of
the received fragments to determine when all of the fragments of a PDU
have been received."  An :class:`IntervalSet` records half-open unit
ranges ``[start, end)`` and answers coverage, overlap and completion
queries in O(log n) per operation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = ["IntervalSet"]


@dataclass
class IntervalSet:
    """A set of disjoint, sorted half-open integer intervals."""

    _starts: list[int] = field(default_factory=list)
    _ends: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``; returns the number of *new* units added.

        Overlapping or adjacent intervals are merged.  A return value
        smaller than ``end - start`` means part of the range was already
        present (a duplicate arrival).
        """
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        if start < 0:
            raise ValueError(f"negative interval start {start}")

        # Find the window of existing intervals that touch [start, end).
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)

        overlap = 0
        new_start, new_end = start, end
        for i in range(lo, hi):
            overlap += min(self._ends[i], end) - max(self._starts[i], start)
            new_start = min(new_start, self._starts[i])
            new_end = max(new_end, self._ends[i])

        self._starts[lo:hi] = [new_start]
        self._ends[lo:hi] = [new_end]
        # Clamp: intervals that merely touch contribute no overlap.
        return (end - start) - max(overlap, 0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def covered(self) -> int:
        """Total number of units present."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def contains(self, start: int, end: int) -> bool:
        """True if every unit of ``[start, end)`` is present."""
        if end <= start:
            return True
        i = bisect.bisect_right(self._starts, start) - 1
        return i >= 0 and self._ends[i] >= end

    def gaps(self, start: int, end: int) -> list[tuple[int, int]]:
        """The sub-ranges of ``[start, end)`` not present, in order
        (bisects to the window and walks only it)."""
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_left(self._starts, end)
        found: list[tuple[int, int]] = []
        cursor = start
        for i in range(lo, hi):
            if self._starts[i] > cursor:
                found.append((cursor, self._starts[i]))
            cursor = self._ends[i]
        if cursor < end:
            found.append((cursor, end))
        return found

    def overlaps(self, start: int, end: int) -> int:
        """Number of units of ``[start, end)`` already present."""
        if end <= start:
            return 0
        return (end - start) - sum(e - s for s, e in self.gaps(start, end))

    def is_complete(self, total_units: int) -> bool:
        """True if every unit of ``[0, total_units)`` is present."""
        return self.contains(0, total_units)

    def missing(self, total_units: int) -> list[tuple[int, int]]:
        """The gaps in ``[0, total_units)`` still to arrive."""
        return self.gaps(0, total_units)

    def intervals(self) -> list[tuple[int, int]]:
        """A copy of the stored intervals."""
        return list(zip(self._starts, self._ends))

    @property
    def span_end(self) -> int:
        """One past the highest unit seen (0 if empty)."""
        return self._ends[-1] if self._ends else 0

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __contains__(self, unit: int) -> bool:
        return self.contains(unit, unit + 1)
