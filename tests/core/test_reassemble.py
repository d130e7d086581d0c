"""Unit tests for the Appendix D reassembly algorithm."""

import random

import pytest

from repro.core.errors import ReassemblyError
from repro.core.fragment import split, split_to_unit_limit
from repro.core.reassemble import can_merge, coalesce, merge
from repro.wsc.invariant import EdPayload, build_ed_chunk

from tests.helpers import make_chunk


class TestMerge:
    def test_split_then_merge_is_identity(self):
        chunk = make_chunk(units=10, c_st=True, t_st=True, x_st=True)
        a, b = split(chunk, 3)
        assert merge(a, b) == chunk

    def test_merge_takes_second_chunks_st(self):
        chunk = make_chunk(units=8, t_st=True)
        a, b = split(chunk, 5)
        merged = merge(a, b)
        assert merged.t.st is True
        assert merged.c.st is False

    def test_cannot_merge_wrong_order(self):
        a, b = split(make_chunk(units=6), 3)
        assert not can_merge(b, a)
        with pytest.raises(ReassemblyError):
            merge(b, a)

    def test_cannot_merge_nonadjacent(self):
        pieces = split_to_unit_limit(make_chunk(units=9), 3)
        assert not can_merge(pieces[0], pieces[2])

    def test_cannot_merge_across_tpdus(self):
        a = make_chunk(units=4, t_id=1, c_sn=0, t_sn=0, x_sn=0)
        b = make_chunk(units=4, t_id=2, c_sn=4, t_sn=0, x_sn=4)
        assert not can_merge(a, b)

    def test_cannot_merge_different_size(self):
        a = make_chunk(units=4, size=1)
        b = make_chunk(units=4, size=2, c_sn=4, t_sn=4, x_sn=4)
        assert not can_merge(a, b)

    def test_cannot_merge_control(self):
        ed = build_ed_chunk(1, 2, EdPayload(0, 0, 1))
        assert not can_merge(ed, ed)

    def test_merge_requires_all_three_levels_adjacent(self):
        chunk = make_chunk(units=6)
        a, b = split(chunk, 2)
        # Break only the X level.
        b_bad = b.with_tuples(x=b.x.advanced(1))
        assert not can_merge(a, b_bad)


class TestCoalesce:
    def test_single_step_full_recovery(self):
        chunk = make_chunk(units=16, t_st=True)
        pieces = split_to_unit_limit(chunk, 3)
        random.Random(7).shuffle(pieces)
        assert coalesce(pieces) == [chunk]

    def test_recovers_regardless_of_fragmentation_depth(self):
        chunk = make_chunk(units=32)
        # Fragment in several successive stages (an internet of MTUs).
        stage1 = split_to_unit_limit(chunk, 11)
        stage2 = [p for piece in stage1 for p in split_to_unit_limit(piece, 4)]
        stage3 = [p for piece in stage2 for p in split_to_unit_limit(piece, 1)]
        random.Random(3).shuffle(stage3)
        assert coalesce(stage3) == [chunk]

    def test_partial_pool_leaves_gaps_unmerged(self):
        chunk = make_chunk(units=9)
        pieces = split_to_unit_limit(chunk, 3)
        result = coalesce([pieces[0], pieces[2]])  # middle missing
        assert len(result) == 2

    def test_exact_duplicates_dropped(self):
        chunk = make_chunk(units=6)
        pieces = split_to_unit_limit(chunk, 2)
        assert coalesce(pieces + [pieces[1]]) == [chunk]

    def test_contained_fragment_dropped(self):
        chunk = make_chunk(units=8)
        inner = split_to_unit_limit(chunk, 2)[1]  # covered by the whole
        assert coalesce([chunk, inner]) == [chunk]

    def test_overlap_with_mismatched_payload_raises(self):
        chunk = make_chunk(units=8, seed=1)
        impostor = make_chunk(units=8, seed=2).with_tuples(
            c=chunk.c.advanced(4), t=chunk.t.advanced(4), x=chunk.x.advanced(4)
        )
        with pytest.raises(ReassemblyError):
            coalesce([chunk, impostor])

    def test_multiple_connections_kept_separate(self):
        a = make_chunk(units=4, c_id=1)
        b = make_chunk(units=4, c_id=2)
        result = coalesce([a, b])
        assert sorted(ch.c.ident for ch in result) == [1, 2]

    def test_control_chunks_pass_through(self):
        ed = build_ed_chunk(1, 10, EdPayload(1, 2, 3))
        chunk = make_chunk(units=4)
        result = coalesce([ed, chunk])
        assert chunk in result and ed in result

    def test_empty_pool(self):
        assert coalesce([]) == []

    def test_interleaved_tpdus_merge_within_tpdu_only(self):
        t1 = make_chunk(units=6, t_id=1, c_sn=0, t_sn=0, x_sn=0)
        t2 = make_chunk(units=6, t_id=2, c_sn=6, t_sn=0, x_sn=6)
        pool = split_to_unit_limit(t1, 2) + split_to_unit_limit(t2, 2)
        random.Random(5).shuffle(pool)
        result = coalesce(pool)
        assert result == [t1, t2]
