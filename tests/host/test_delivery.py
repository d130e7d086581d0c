"""Unit tests for placement buffers and the frame store."""

from itertools import permutations

import pytest

from repro.core.errors import InconsistentOverlapError
from repro.host.delivery import FrameStore, PlacementBuffer
from tests.helpers import place_frame


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

    def test_read_is_a_zero_filled_slice(self):
        buffer = PlacementBuffer()
        buffer.place(4, b"efgh")
        assert buffer.read(4, 8) == b"efgh"
        assert buffer.read(2, 6) == b"\x00\x00ef"             # a hole below
        assert buffer.read(6, 12) == b"gh\x00\x00\x00\x00"   # beyond what is placed
        assert buffer.read(20, 24) == b"\x00" * 4
        assert buffer.read(5, 5) == b""


def _store(**bounds) -> FrameStore:
    return FrameStore(PlacementBuffer(), **bounds)


class TestFrameStore:
    def test_frame_completion_event(self):
        store = _store()
        assert not place_frame(store, 1, 0, b"abcd")
        assert place_frame(store, 1, 4, b"efgh", last=True)
        assert store.completed == [1]

    def test_out_of_order_within_frame(self):
        store = _store()
        assert not place_frame(store, 1, 4, b"efgh", last=True)
        assert place_frame(store, 1, 0, b"abcd")
        assert store.contents(1) == b"abcdefgh"

    def test_interleaved_frames(self):
        store = _store()
        place_frame(store, 1, 0, b"aa")
        place_frame(store, 2, 0, b"bb")
        place_frame(store, 2, 2, b"cc", last=True)
        place_frame(store, 1, 2, b"dd", last=True)
        assert store.completed == [2, 1]

    def test_completion_fires_once(self):
        store = _store()
        place_frame(store, 1, 0, b"ab", last=True)
        assert not place_frame(store, 1, 0, b"ab", last=True)
        assert store.completed == [1]

    def test_pop_frame(self):
        store = _store()
        place_frame(store, 9, 0, b"data", last=True)
        assert store.pop_frame(9) == b"data"
        assert store.frame(9) is None
        assert store.completed == []

    def test_a_frame_is_a_window_of_the_stream_not_a_copy(self):
        store = _store()
        place_frame(store, 2, 0, b"wxyz", last=True, base=8)
        place_frame(store, 1, 4, b"efgh", last=True, base=0)
        assert store.completed == [2]
        assert place_frame(store, 1, 0, b"abcd", base=0)
        # Each byte was placed once, in the stream; the frames only say where.
        assert store.stream.bytes_placed == 12
        assert store.stream.contents() == b"abcdefghwxyz"
        assert (store.frame(1).base, store.frame(2).base) == (0, 8)
        assert store.pop_frame(2) == b"wxyz"
        assert store.stream.contents() == b"abcdefghwxyz"      # a pop frees nothing
        assert store.contents(1) == b"abcdefgh"

    def test_incomplete_frame_reads_with_zero_filled_holes(self):
        store = _store()
        place_frame(store, 3, 4, b"efgh")
        assert store.contents(3) == b"\x00" * 4 + b"efgh"      # end unknown: as far as seen
        place_frame(store, 3, 12, b"mnop", last=True)
        assert store.pop_frame(3) == b"\x00" * 4 + b"efgh" + b"\x00" * 4 + b"mnop"

    def test_completion_is_looked_up_by_flag_not_by_scanning_completed(self):
        class NoScan(list):
            def __contains__(self, item):
                raise AssertionError("completed was scanned")

        store = _store()
        store.completed = NoScan()
        for frame_id in range(3):
            assert place_frame(store, frame_id, 0, b"ab", last=True)
            assert not place_frame(store, frame_id, 0, b"ab", last=True)
        assert list(store.completed) == [0, 1, 2]
        store.pop_frame(1)
        assert list(store.completed) == [0, 2]


class TestFrameDisplacement:
    """(C.SN - X.SN) is constant over a frame; the first chunk fixes it."""

    def test_a_chunk_that_moves_the_frame_is_a_conflict(self):
        store = _store()
        place_frame(store, 5, 0, b"abcd", base=0)
        with pytest.raises(InconsistentOverlapError, match="begins at stream offset 0"):
            place_frame(store, 5, 0, b"ABCD", base=400)
        window = store.frame(5)
        assert (window.base, window.placed_to, window.total_bytes) == (0, 4, None)

    def test_a_frame_cannot_begin_before_the_stream(self):
        store = _store()
        with pytest.raises(ValueError, match="before the stream"):
            store.place(5, 8, 4, 4)                 # frame byte 8 at stream byte 4
        assert store.frame(5) is None


class TestFrameEndIsArrivalOrderInvariant:
    """A frame's size may not depend on which chunk arrived first: an
    end marker (X.ST) that contradicts what is already known is refused
    exactly as data beyond an already-known end always was."""

    @staticmethod
    def _drive(order):
        store = _store()
        refused = completions = 0
        for offset, data, last in order:
            try:
                completions += place_frame(store, 1, offset, data, last=last)
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
            window = store.frame(1)
            assert refused >= 1, order
            assert completions == 0 and store.completed == [], order
            # Never bytes beyond an end the frame accepted.
            assert (
                window.total_bytes is None
                or len(store.contents(1)) == window.total_bytes >= window.placed_to
            ), order

    def test_second_different_end_marker_cannot_resize_the_frame(self):
        store = _store()
        place_frame(store, 1, 0, b"abcd")
        place_frame(store, 1, 8, b"ijkl", last=True)           # the frame is 12 bytes
        with pytest.raises(ValueError, match="known end 12"):
            place_frame(store, 1, 4, b"efgh", last=True)       # "no, 8"
        window = store.frame(1)
        assert store.completed == []                    # no early completion
        assert (window.total_bytes, window.placed_to) == (12, 12)
        assert place_frame(store, 1, 4, b"efgh")        # the honest chunk completes it
        assert store.pop_frame(1) == b"abcdefghijkl"

    def test_late_end_marker_below_placed_bytes_writes_nothing(self):
        store = _store()
        place_frame(store, 1, 4, b"efgh")
        with pytest.raises(ValueError, match="already placed up to 8"):
            place_frame(store, 1, 0, b"abcd", last=True)
        window = store.frame(1)
        assert (window.total_bytes, window.placed_to) == (None, 8)
        assert store.completed == []

    def test_data_beyond_the_known_end_is_refused(self):
        store = _store()
        place_frame(store, 1, 0, b"abcd", last=True)
        with pytest.raises(ValueError, match="beyond frame 1's 4 bytes"):
            place_frame(store, 1, 4, b"efgh")
        assert store.frame(1).placed_to == 4 and store.completed == [1]


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

        store = _store(max_frames=3)
        for frame_id in range(3):
            place_frame(store, frame_id, 0, b"xx")
        with _pytest.raises(ValueError, match="more than 3 concurrent frames"):
            place_frame(store, 99, 0, b"xx")
        assert store.frame(99) is None

    def test_frame_store_existing_frame_still_writable_at_cap(self):
        store = _store(max_frames=2)
        place_frame(store, 1, 0, b"aa")
        place_frame(store, 2, 0, b"bb")
        assert place_frame(store, 1, 2, b"cc", last=True)
