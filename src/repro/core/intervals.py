"""Interval sets over non-negative integers.

The workhorse of *virtual reassembly* (Section 3.3): "keeping track of
the received fragments to determine when all of the fragments of a PDU
have been received."  An :class:`IntervalSet` records half-open unit
ranges ``[start, end)`` and answers coverage, overlap and completion
queries in O(log n) per operation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

    def insert(self, start: int, end: int) -> list[tuple[int, int]]:
        """Add ``[start, end)`` and return the sub-ranges of it that were
        not present — what :meth:`gaps` gave just before — in one walk.

        Overlapping or adjacent intervals are merged.
        """
        if not 0 <= start < end:
            raise ValueError(
                f"empty interval [{start}, {end})" if end <= start
                else f"negative interval start {start}"
            )
        starts, ends = self._starts, self._ends
        # The window of stored intervals that overlap or touch [start, end).
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo == hi:  # it touches none: all of it is fresh
            starts.insert(lo, start)
            ends.insert(lo, end)
            return [(start, end)]
        fresh: list[tuple[int, int]] = []
        cursor = start
        for i in range(lo, hi):
            if starts[i] > cursor:
                fresh.append((cursor, starts[i]))
            cursor = ends[i]
        if cursor < end:
            fresh.append((cursor, end))
        starts[lo:hi] = [min(start, starts[lo])]
        ends[lo:hi] = [max(end, ends[hi - 1])]
        return fresh

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``; returns the number of *new* units added
        (fewer than ``end - start`` means part was present: a duplicate)."""
        return sum(hi - lo for lo, hi in self.insert(start, end))

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
        i = bisect_right(self._starts, start) - 1
        return i >= 0 and self._ends[i] >= end

    def gaps(self, start: int, end: int) -> list[tuple[int, int]]:
        """The sub-ranges of ``[start, end)`` not present, in order
        (bisects to the window and walks only it)."""
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end)
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
        """True if every unit of ``[0, total_units)`` is present (then the
        first interval holds them all: stored intervals never touch)."""
        return total_units <= 0 or self._starts[:1] == [0] and self._ends[0] >= total_units

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
