"""Unit tests for placement buffers and the frame store."""

from itertools import permutations

import pytest

from repro.host.delivery import FrameStore, PlacementBuffer


class TestPlacementBuffer:
    def test_in_order_placement(self):
        buffer = PlacementBuffer(total_bytes=10)
        buffer.place(0, b"hello")
        buffer.place(5, b"world")
        assert buffer.is_complete()
        assert buffer.contents() == b"helloworld"

    def test_out_of_order_placement(self):
        buffer = PlacementBuffer(total_bytes=10)
        buffer.place(5, b"world")
        assert not buffer.is_complete()
        buffer.place(0, b"hello")
        assert buffer.is_complete()
        assert buffer.contents() == b"helloworld"

    def test_fresh_byte_accounting(self):
        buffer = PlacementBuffer()
        assert buffer.place(0, b"abcd") == 4
        assert buffer.place(2, b"cdef") == 2
        assert buffer.bytes_placed == 6
        assert buffer.duplicate_bytes == 2

    def test_duplicate_overwrite_is_idempotent(self):
        buffer = PlacementBuffer()
        buffer.place(0, b"abcd")
        buffer.place(0, b"abcd")
        assert buffer.contents() == b"abcd"
        assert buffer.duplicate_bytes == 4

    def test_write_beyond_region_rejected(self):
        buffer = PlacementBuffer(total_bytes=4)
        with pytest.raises(ValueError):
            buffer.place(2, b"abc")

    def test_holes_are_zero_filled(self):
        buffer = PlacementBuffer(total_bytes=6)
        buffer.place(4, b"zz")
        assert buffer.contents() == b"\x00\x00\x00\x00zz"

    def test_missing_ranges(self):
        buffer = PlacementBuffer(total_bytes=10)
        buffer.place(3, b"abc")
        assert buffer.missing() == [(0, 3), (6, 10)]

    def test_missing_without_total_uses_span(self):
        buffer = PlacementBuffer()
        buffer.place(4, b"ab")
        assert buffer.missing() == [(0, 4)]

    def test_has_range(self):
        buffer = PlacementBuffer()
        buffer.place(2, b"abcd")
        assert buffer.has_range(2, 6)
        assert not buffer.has_range(0, 4)

    def test_empty_place_is_noop(self):
        buffer = PlacementBuffer()
        assert buffer.place(0, b"") == 0


class TestFrameStore:
    def test_frame_completion_event(self):
        store = FrameStore()
        assert not store.place(1, 0, b"abcd")
        assert store.place(1, 4, b"efgh", last=True)
        assert store.completed == [1]

    def test_out_of_order_within_frame(self):
        store = FrameStore()
        assert not store.place(1, 4, b"efgh", last=True)
        assert store.place(1, 0, b"abcd")
        assert store.frame(1).contents() == b"abcdefgh"

    def test_interleaved_frames(self):
        store = FrameStore()
        store.place(1, 0, b"aa")
        store.place(2, 0, b"bb")
        store.place(2, 2, b"cc", last=True)
        store.place(1, 2, b"dd", last=True)
        assert store.completed == [2, 1]

    def test_completion_fires_once(self):
        store = FrameStore()
        store.place(1, 0, b"ab", last=True)
        assert not store.place(1, 0, b"ab", last=True)
        assert store.completed == [1]

    def test_pop_frame(self):
        store = FrameStore()
        store.place(9, 0, b"data", last=True)
        assert store.pop_frame(9) == b"data"
        assert store.frame(9) is None
        assert store.completed == []


class TestFrameEndIsArrivalOrderInvariant:
    """A frame's size may not depend on which chunk arrived first: an
    end marker (X.ST) that contradicts what is already known is refused
    exactly as data beyond an already-known end always was."""

    @staticmethod
    def _drive(order):
        store = FrameStore()
        refused = completions = 0
        for offset, data, last in order:
            try:
                completions += store.place(1, offset, data, last=last)
            except ValueError:
                refused += 1
        return store, refused, completions

    @pytest.mark.parametrize("pieces", [
        # bogus end at 8 below bytes 8-12 (the frame's head never arrives)
        [(4, b"efgh", True), (8, b"ijkl", False)],
        # the same with the true end marker at 16 as a third chunk
        [(4, b"efgh", True), (8, b"ijkl", False), (12, b"mnop", True)],
    ])
    def test_contradictory_end_is_refused_in_every_order(self, pieces):
        for order in permutations(pieces):
            store, refused, completions = self._drive(order)
            buffer = store.frame(1)
            assert refused >= 1, order
            assert completions == 0 and store.completed == [], order
            # Never bytes beyond an end the frame accepted.
            assert (
                buffer.total_bytes is None
                or len(buffer.contents()) == buffer.total_bytes
            ), order

    def test_second_different_end_marker_cannot_resize_the_frame(self):
        store = FrameStore()
        store.place(1, 0, b"abcd")
        store.place(1, 8, b"ijkl", last=True)           # the frame is 12 bytes
        with pytest.raises(ValueError, match="known end 12"):
            store.place(1, 4, b"efgh", last=True)       # "no, 8"
        buffer = store.frame(1)
        assert store.completed == []                    # no early completion
        assert buffer.total_bytes == 12
        assert buffer.bytes_placed == 8                 # nothing was written
        assert store.place(1, 4, b"efgh")               # the honest chunk completes it
        assert store.pop_frame(1) == b"abcdefghijkl"

    def test_late_end_marker_below_placed_bytes_writes_nothing(self):
        store = FrameStore()
        store.place(1, 4, b"efgh")
        with pytest.raises(ValueError, match="already placed up to 8"):
            store.place(1, 0, b"abcd", last=True)
        buffer = store.frame(1)
        assert buffer.total_bytes is None
        assert buffer.bytes_placed == 4 and not buffer.has_range(0, 4)
        assert store.completed == []


class TestAllocationGuards:
    def test_limit_bytes_rejects_absurd_offset(self):
        import pytest as _pytest

        buffer = PlacementBuffer(limit_bytes=1024)
        with _pytest.raises(ValueError):
            buffer.place(2**40, b"data")
        assert buffer.bytes_placed == 0

    def test_limit_bytes_allows_in_bounds(self):
        buffer = PlacementBuffer(limit_bytes=1024)
        assert buffer.place(1000, b"data" * 6) == 24

    def test_frame_store_bounds_concurrent_frames(self):
        import pytest as _pytest

        store = FrameStore(max_frames=3)
        for frame_id in range(3):
            store.place(frame_id, 0, b"xx")
        with _pytest.raises(ValueError):
            store.place(99, 0, b"xx")

    def test_frame_store_existing_frame_still_writable_at_cap(self):
        store = FrameStore(max_frames=2)
        store.place(1, 0, b"aa")
        store.place(2, 0, b"bb")
        assert store.place(1, 2, b"cc", last=True)
