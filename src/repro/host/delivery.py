"""Application address-space placement ("spatial reordering").

Section 1: "Regardless of the order in which data arrive, they can be
correctly placed in the application address space" (bulk transfer), and
"data of an individual frame can be placed in the frame buffer as they
arrive without reordering" (video).  Footnote 2 calls this *spatial*
reordering versus conventional temporal reordering.

:class:`PlacementBuffer` is one contiguous destination region with
interval tracking; :class:`FrameStore` keys one window of that region
per external PDU (video frames, ALF frames) and reports frame-complete
events.  Every payload byte is placed once, in the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.intervals import IntervalSet
from repro.core.errors import BudgetExceededError, InconsistentOverlapError
from repro.host.budget import SharedPlacementBudget

__all__ = ["PlacementBuffer", "FrameWindow", "FrameStore"]


def _refuse_contradicted_end(end: int, known_end: int | None, placed_to: int) -> None:
    """The end-marker rule (C.ST, X.ST): a region's size must not depend on
    arrival order, so a late marker is held to what an early one refuses."""
    if known_end not in (None, end) or placed_to > end:
        raise ValueError(
            f"end marker at {end} contradicts the region's known end "
            f"{known_end} or bytes already placed up to {placed_to} "
            f"(corrupted ST bit?)"
        )


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
            if self.budget is not None and not self.budget.reserve(self.budget_key, growth):
                raise BudgetExceededError(
                    f"write [{offset}, {end}) refused by the shared "
                    f"placement budget (key={self.budget_key!r})"
                )
            self._data.extend(b"\x00" * growth)
        self._data[offset:end] = data
        fresh = sum(hi - lo for lo, hi in self._received.insert(offset, end))
        self.bytes_placed += fresh
        self.duplicate_bytes += len(data) - fresh
        return fresh

    def place_last(self, offset: int, data: bytes) -> int:
        """:meth:`place` the range whose end marker (C.ST, X.ST) ends the region.

        Raises:
            ValueError: also when the marker contradicts the end already
                known or lies below bytes already placed (corrupted ST
                bit).  Nothing is written and the end is not learned.
        """
        end = offset + len(data)
        _refuse_contradicted_end(end, self.total_bytes, self._received.span_end)
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
        return self.read(0, max(len(self._data), self.total_bytes or 0))

    def read(self, start: int, end: int) -> bytes:
        """The bytes of ``[start, end)``; what is not placed reads as zeros."""
        with memoryview(self._data) as placed:
            return bytes(placed[start:end]).ljust(end - start, b"\x00")


@dataclass(slots=True)
class FrameWindow:
    """Where one external PDU lies in the connection stream: ``(C.SN - X.SN)``
    is constant over a frame, so its bytes are the stream's from *base* on."""

    base: int                       # stream offset of frame byte 0; the first chunk fixes it
    total_bytes: int | None = None  # the frame's size, once an X.ST is accepted
    placed_to: int = 0              # one past the highest frame byte an accepted chunk carried
    complete: bool = False          # completion has been reported (it fires once)


@dataclass
class FrameStore:
    """One window of *stream* per frame id (the X framing level).

    *max_frames* bounds concurrent per-frame state so corrupted X.IDs
    cannot exhaust memory by naming unbounded fresh frames.
    """

    stream: PlacementBuffer
    frames: dict[int, FrameWindow] = field(default_factory=dict)
    completed: list[int] = field(default_factory=list)
    max_frames: int = 4096

    def place(
        self, frame_id: int, offset: int, stream_offset: int, nbytes: int, last: bool = False
    ) -> bool:
        """Account to the frame, from its byte *offset* on, the *nbytes* the
        stream placed at *stream_offset*; *last* marks the frame's final range.

        Returns True exactly when this placement completes the frame.

        Raises:
            InconsistentOverlapError: the chunk puts the frame elsewhere in
                the stream than the frame's first chunk did.
            ValueError: the frame-count bound would be exceeded, the frame
                would begin before the stream or the range lie beyond the
                frame's known end, or *last* breaks the end-marker rule
                (corrupted labels).  The frame learns nothing.
        """
        base = stream_offset - offset
        window = self.frames.get(frame_id)
        if window is None:
            if len(self.frames) >= self.max_frames:
                raise ValueError(
                    f"more than {self.max_frames} concurrent frames "
                    f"(corrupted X.ID?)"
                )
            if base < 0:
                raise ValueError(
                    f"frame {frame_id} would begin {-base} bytes before the "
                    f"stream does (corrupted X.SN?)"
                )
            window = self.frames[frame_id] = FrameWindow(base)
        elif base != window.base:
            raise InconsistentOverlapError(
                f"frame {frame_id} begins at stream offset {window.base}; "
                f"this chunk puts it at {base}"
            )
        end = offset + nbytes
        if last:
            _refuse_contradicted_end(end, window.total_bytes, window.placed_to)
            window.total_bytes = end
        elif window.total_bytes is not None and end > window.total_bytes:
            raise ValueError(
                f"write [{offset}, {end}) beyond frame {frame_id}'s "
                f"{window.total_bytes} bytes"
            )
        window.placed_to = max(window.placed_to, end)
        if window.complete or window.total_bytes is None:
            return False
        window.complete = self.stream.has_range(base, base + window.total_bytes)
        if window.complete:
            self.completed.append(frame_id)
        return window.complete

    def frame(self, frame_id: int) -> FrameWindow | None:
        return self.frames.get(frame_id)

    def contents(self, frame_id: int) -> bytes:
        """The frame's bytes so far (holes are zero-filled)."""
        window = self.frames[frame_id]
        size = window.placed_to if window.total_bytes is None else window.total_bytes
        return self.stream.read(window.base, window.base + size)

    def pop_frame(self, frame_id: int) -> bytes:
        """Remove and return a frame's bytes (they stay in the stream)."""
        data = self.contents(frame_id)
        if self.frames.pop(frame_id).complete:
            self.completed.remove(frame_id)
        return data
