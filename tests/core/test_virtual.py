"""Unit tests for virtual reassembly (Section 3.3)."""

import random
from itertools import permutations

import pytest

from repro.core.errors import VirtualReassemblyError
from repro.core.fragment import split_to_unit_limit
from repro.core.virtual import PduState, VirtualReassembler
from repro.wsc.invariant import EdPayload, build_ed_chunk

from tests.conftest import make_chunk


class TestPduState:
    def test_in_order_completion(self):
        state = PduState()
        state.record(0, 5, st=False)
        arrival = state.record(5, 5, st=True)
        assert arrival.completed
        assert state.complete
        assert state.total_units == 10

    def test_out_of_order_completion(self):
        state = PduState()
        state.record(5, 5, st=True)
        assert not state.complete
        arrival = state.record(0, 5, st=False)
        assert arrival.completed

    def test_duplicate_units_counted(self):
        state = PduState()
        state.record(0, 6, st=False)
        arrival = state.record(2, 6, st=False)
        assert arrival.new_units == 2
        assert arrival.duplicate_units == 4

    def test_fresh_ranges_around_existing(self):
        state = PduState()
        state.record(3, 4, st=False)  # covers [3, 7)
        arrival = state.record(0, 10, st=True)  # [0, 10)
        assert arrival.fresh_ranges == ((0, 3), (7, 10))

    def test_fresh_ranges_multiple_islands(self):
        state = PduState()
        state.record(1, 1, st=False)
        state.record(4, 1, st=False)
        arrival = state.record(0, 7, st=True)
        assert arrival.fresh_ranges == ((0, 1), (2, 4), (5, 7))

    def test_completed_flag_fires_once(self):
        state = PduState()
        first = state.record(0, 4, st=True)
        assert first.completed
        again = state.record(0, 4, st=True)
        assert not again.completed
        assert again.duplicate_units == 4

    def test_conflicting_st_positions_raise(self):
        state = PduState()
        state.record(0, 4, st=True)
        with pytest.raises(VirtualReassemblyError):
            state.record(4, 2, st=True)

    def test_data_beyond_st_raises(self):
        state = PduState()
        state.record(0, 4, st=True)
        with pytest.raises(VirtualReassemblyError):
            state.record(4, 1, st=False)

    @pytest.mark.parametrize("arrivals", [
        # a 5-unit PDU "ending" below units 5-9 that are also held
        [(0, 5, True), (5, 5, False)],
        # T.ST flipped on in the first / the middle chunk of a 15-unit PDU
        [(0, 5, True), (5, 5, False), (10, 5, True)],
        [(0, 5, False), (5, 5, True), (10, 5, False)],
        # the bogus end with the PDU's first chunk still missing
        [(5, 5, True), (10, 5, False), (15, 5, True)],
    ])
    def test_misplaced_st_is_an_error_in_every_arrival_order(self, arrivals):
        for order in permutations(arrivals):
            state = PduState()
            with pytest.raises(VirtualReassemblyError):
                for start, length, st in order:
                    state.record(start, length, st)
            # The refusal left the bookkeeping consistent: nothing is
            # held beyond an end the state accepted.
            assert (
                state.total_units is None
                or state.received.span_end <= state.total_units
            ), order

    def test_late_st_below_received_data_changes_nothing(self):
        state = PduState()
        state.record(5, 5, st=False)
        with pytest.raises(VirtualReassemblyError, match="beyond PDU end 5"):
            state.record(0, 5, st=True)
        assert state.total_units is None and not state.complete
        assert state.received.intervals() == [(5, 10)]

    def test_missing_ranges(self):
        state = PduState()
        state.record(6, 2, st=True)
        assert state.missing() == [(0, 6)]

    def test_missing_without_st_uses_horizon(self):
        state = PduState()
        state.record(4, 2, st=False)
        assert state.missing() == [(0, 4)]


class TestVirtualReassembler:
    def test_tracks_by_t_level(self):
        tracker = VirtualReassembler(level="t")
        chunk = make_chunk(units=4, t_id=9, t_st=True)
        arrival = tracker.record(chunk)
        assert arrival.completed
        assert tracker.is_complete(9)

    def test_tracks_by_x_level(self):
        tracker = VirtualReassembler(level="x")
        chunk = make_chunk(units=4, x_id=77, x_st=True)
        tracker.record(chunk)
        assert tracker.is_complete(77)

    def test_fragmented_tpdu_completes_in_any_order(self):
        tracker = VirtualReassembler(level="t")
        chunk = make_chunk(units=12, t_st=True)
        pieces = split_to_unit_limit(chunk, 3)
        random.Random(2).shuffle(pieces)
        completions = [tracker.record(p).completed for p in pieces]
        assert completions.count(True) == 1
        assert tracker.is_complete(chunk.t.ident)

    def test_in_flight_reporting(self):
        tracker = VirtualReassembler(level="t")
        done = make_chunk(units=2, t_id=1, t_st=True)
        partial = make_chunk(units=2, t_id=2, c_sn=2)
        tracker.record(done)
        tracker.record(partial)
        assert tracker.in_flight() == [2]
        assert tracker.completed_pdus() == {1}

    def test_control_chunk_rejected(self):
        tracker = VirtualReassembler(level="t")
        with pytest.raises(VirtualReassemblyError):
            tracker.record(build_ed_chunk(1, 2, EdPayload(0, 0, 1)))

    def test_evict(self):
        tracker = VirtualReassembler(level="t")
        tracker.record(make_chunk(units=2, t_id=5, t_st=True))
        tracker.evict(5)
        assert not tracker.is_complete(5)
        assert tracker.state(5) is None
