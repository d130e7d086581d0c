"""Application address-space placement ("spatial reordering").

Section 1: "Regardless of the order in which data arrive, they can be
correctly placed in the application address space" (bulk transfer), and
"data of an individual frame can be placed in the frame buffer as they
arrive without reordering" (video).  Footnote 2 calls this *spatial*
reordering versus conventional temporal reordering.

:class:`PlacementBuffer` is one contiguous destination region with
interval tracking; :class:`FrameStore` keys one buffer per external PDU
(video frames, ALF frames) and reports frame-complete events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.intervals import IntervalSet
from repro.core.errors import BudgetExceededError, InconsistentOverlapError
from repro.host.budget import BudgetLease, SharedPlacementBudget

__all__ = ["PlacementBuffer", "FrameStore"]


@dataclass
class PlacementBuffer:
    """A destination region that accepts writes at arbitrary offsets.

    *limit_bytes* bounds how far a write may extend the region; a
    corrupted sequence number must not be able to demand a petabyte
    allocation (callers treat the raised :class:`ValueError` as chunk
    rejection, and the end-to-end verifier catches the corruption).

    When the buffer belongs to a multiplexed endpoint, *budget* replaces
    the solitary ``limit_bytes``: region growth reserves bytes from the
    endpoint's :class:`~repro.host.budget.SharedPlacementBudget` under
    *budget_key* (the C.ID), and a refused reservation raises the same
    :class:`ValueError` the callers already treat as chunk rejection.
    """

    total_bytes: int | None = None
    limit_bytes: int | None = 256 * 1024 * 1024
    budget: SharedPlacementBudget | None = None
    budget_key: object = None
    #: the buffer's owned reservation token — one lease per region,
    #: grown in place, so the per-chunk hot path never allocates tokens.
    _lease: BudgetLease | None = field(default=None, repr=False)
    _data: bytearray = field(default_factory=bytearray)
    _received: IntervalSet = field(default_factory=IntervalSet)
    bytes_placed: int = 0
    duplicate_bytes: int = 0
    #: writes refused because they overlapped placed bytes with
    #: *different* content (forged/inconsistent fragments).
    overlap_conflicts: int = 0

    def place(self, offset: int, data: bytes) -> int:
        """Write *data* at *offset*; returns the count of fresh bytes.

        Raises:
            InconsistentOverlapError: *data* overlaps already-placed
                bytes with different content.  Nothing is written — the
                buffer never silently resolves a content disagreement
                (first-wins and last-wins are both NIDS-evasion bugs).
            ValueError: the write falls outside the region bounds.
            BudgetExceededError: the shared pool refused the growth.
        """
        if not data:
            return 0
        end = offset + len(data)
        if self.total_bytes is not None and end > self.total_bytes:
            raise ValueError(
                f"write [{offset}, {end}) beyond region of {self.total_bytes} bytes"
            )
        if self.limit_bytes is not None and end > self.limit_bytes:
            raise ValueError(
                f"write [{offset}, {end}) beyond the {self.limit_bytes}-byte "
                f"region limit (corrupted sequence number?)"
            )
        gaps = self._received.gaps(offset, end)
        if gaps != [(offset, end)]:
            # Some of the range is already placed: what lies between the
            # gaps must agree.  The views are released before any region
            # growth below — a live export would pin the bytearray's size.
            with memoryview(self._data) as placed, memoryview(data) as incoming:
                lo = offset
                for gap_start, gap_end in gaps + [(end, end)]:
                    if placed[lo:gap_start] != incoming[lo - offset : gap_start - offset]:
                        self.overlap_conflicts += 1
                        raise InconsistentOverlapError(
                            f"write [{offset}, {end}) disagrees with already-"
                            f"placed bytes in [{lo}, {gap_start})"
                        )
                    lo = gap_end
        if len(self._data) < end:
            growth = end - len(self._data)
            if self.budget is not None:
                try:
                    if self._lease is None:
                        self._lease = self.budget.acquire(self.budget_key, growth)
                    else:
                        self._lease.grow(growth)
                except BudgetExceededError:
                    raise BudgetExceededError(
                        f"write [{offset}, {end}) refused by the shared "
                        f"placement budget (key={self.budget_key!r})"
                    ) from None
            self._data.extend(b"\x00" * growth)
        self._data[offset:end] = data
        fresh = self._received.add(offset, end)
        self.bytes_placed += fresh
        self.duplicate_bytes += len(data) - fresh
        return fresh

    def place_last(self, offset: int, data: bytes) -> int:
        """:meth:`place` the range whose end marker (C.ST, X.ST) ends the region.

        The region's size must not depend on arrival order: a late end
        marker is held to what an early one would have refused.

        Raises:
            ValueError: also when the marker contradicts the end already
                known or lies below bytes already placed (corrupted ST
                bit).  Nothing is written and the end is not learned.
        """
        end = offset + len(data)
        placed_to = self._received.span_end
        if self.total_bytes not in (None, end) or placed_to > end:
            raise ValueError(
                f"end marker at {end} contradicts the region's known end "
                f"{self.total_bytes} or bytes already placed up to {placed_to} "
                f"(corrupted ST bit?)"
            )
        fresh = self.place(offset, data)
        self.total_bytes = end
        return fresh

    def is_complete(self) -> bool:
        return (
            self.total_bytes is not None
            and self._received.is_complete(self.total_bytes)
        )

    def has_range(self, start: int, end: int) -> bool:
        """True if every byte of ``[start, end)`` has been placed."""
        return self._received.contains(start, end)

    def missing(self) -> list[tuple[int, int]]:
        horizon = self.total_bytes if self.total_bytes is not None else self._received.span_end
        return self._received.missing(horizon)

    def contents(self) -> bytes:
        """The region's bytes (holes are zero-filled)."""
        if self.total_bytes is not None and len(self._data) < self.total_bytes:
            return bytes(self._data) + b"\x00" * (self.total_bytes - len(self._data))
        return bytes(self._data)


@dataclass
class FrameStore:
    """One placement buffer per frame id (the X framing level).

    *max_frames* bounds concurrent per-frame state so corrupted X.IDs
    cannot exhaust memory by naming unbounded fresh frames.
    """

    frames: dict[int, PlacementBuffer] = field(default_factory=dict)
    completed: list[int] = field(default_factory=list)
    max_frames: int = 4096
    frame_limit_bytes: int | None = 64 * 1024 * 1024
    #: shared pool the per-frame buffers draw from (endpoint-owned
    #: stores); ``None`` keeps the standalone per-frame limit alone.
    budget: SharedPlacementBudget | None = None
    budget_key: object = None

    def place(
        self,
        frame_id: int,
        offset: int,
        data: bytes,
        last: bool = False,
    ) -> bool:
        """Place frame bytes; *last* marks the frame's final byte range.

        Returns True exactly when this placement completes the frame.

        Raises:
            ValueError: the frame-count or per-frame size bound would be
                exceeded, or *last* is refused by
                :meth:`PlacementBuffer.place_last` (corrupted labels).
                Nothing is written.
        """
        buffer = self.frames.get(frame_id)
        if buffer is None:
            if len(self.frames) >= self.max_frames:
                raise ValueError(
                    f"more than {self.max_frames} concurrent frames "
                    f"(corrupted X.ID?)"
                )
            buffer = self.frames[frame_id] = PlacementBuffer(
                limit_bytes=self.frame_limit_bytes,
                budget=self.budget,
                budget_key=self.budget_key,
            )
        if last:
            buffer.place_last(offset, data)
        else:
            buffer.place(offset, data)
        if buffer.is_complete() and frame_id not in self.completed:
            self.completed.append(frame_id)
            return True
        return False

    def frame(self, frame_id: int) -> PlacementBuffer | None:
        return self.frames.get(frame_id)

    def pop_frame(self, frame_id: int) -> bytes:
        """Remove and return a completed frame's bytes."""
        buffer = self.frames.pop(frame_id)
        if frame_id in self.completed:
            self.completed.remove(frame_id)
        return buffer.contents()
