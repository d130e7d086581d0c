"""Unit tests for stream framing (Figures 1 and 2)."""

import pytest

from repro.core.builder import ChunkStreamBuilder, LabeledUnit, chunks_from_labels
from repro.core.errors import ChunkError
from repro.core.tuples import FramingTuple
from repro.core.types import MAX_TPDU_SYMBOLS

from tests.helpers import make_payload


def _unit(data: bytes, c, t, x) -> LabeledUnit:
    return LabeledUnit(data=data, c=FramingTuple(*c), t=FramingTuple(*t), x=FramingTuple(*x))


class TestChunksFromLabels:
    def test_figure2_worked_example(self):
        """Regenerate the exact chunk of Figure 2: nine labelled data
        units (C.SN 35..43) yield three chunks, the middle one being
        TPDU Q complete: C.SN=36, T.SN=0, X.SN=24, LEN=7, T.ST set."""
        units = []
        t_ids = [0x50] + [0x51] * 7 + [0x52]          # P QQQQQQQ R
        t_sns = [6, 0, 1, 2, 3, 4, 5, 6, 0]
        t_sts = [True, False, False, False, False, False, False, True, False]
        for i in range(9):
            units.append(
                _unit(
                    bytes([i]) * 4,
                    c=(0xA, 35 + i, False),
                    t=(t_ids[i], t_sns[i], t_sts[i]),
                    x=(0xC, 23 + i, False),
                )
            )
        chunks = chunks_from_labels(units)
        assert len(chunks) == 3
        middle = chunks[1]
        assert middle.length == 7
        assert (middle.c.ident, middle.c.sn, middle.c.st) == (0xA, 36, False)
        assert (middle.t.ident, middle.t.sn, middle.t.st) == (0x51, 0, True)
        assert (middle.x.ident, middle.x.sn, middle.x.st) == (0xC, 24, False)
        assert middle.size == 1

    def test_run_breaks_at_id_change(self):
        units = [
            _unit(b"aaaa", (1, 0, False), (10, 0, False), (5, 0, False)),
            _unit(b"bbbb", (1, 1, False), (11, 0, False), (5, 1, False)),
        ]
        assert len(chunks_from_labels(units)) == 2

    def test_run_breaks_after_st_bit(self):
        units = [
            _unit(b"aaaa", (1, 0, False), (10, 0, False), (5, 0, True)),
            _unit(b"bbbb", (1, 1, False), (10, 1, False), (5, 1, False)),
        ]
        chunks = chunks_from_labels(units)
        assert len(chunks) == 2
        assert chunks[0].x.st is True

    def test_single_run_shares_one_header(self):
        units = [
            _unit(bytes([i]) * 4, (1, i, False), (2, i, False), (3, i, False))
            for i in range(10)
        ]
        chunks = chunks_from_labels(units)
        assert len(chunks) == 1
        assert chunks[0].length == 10

    def test_noncontiguous_sns_break_run(self):
        units = [
            _unit(b"aaaa", (1, 0, False), (2, 0, False), (3, 0, False)),
            _unit(b"bbbb", (1, 2, False), (2, 2, False), (3, 2, False)),
        ]
        assert len(chunks_from_labels(units)) == 2

    def test_size_mismatch_rejected(self):
        with pytest.raises(ChunkError):
            LabeledUnit(
                data=b"aaaa",
                c=FramingTuple(1, 0),
                t=FramingTuple(1, 0),
                x=FramingTuple(1, 0),
                size=2,
            )

    def test_empty_input(self):
        assert chunks_from_labels([]) == []


class TestChunkStreamBuilder:
    def test_single_frame_single_tpdu(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=100)
        chunks = builder.add_frame(make_payload(10))
        assert len(chunks) == 1
        chunk = chunks[0]
        assert chunk.length == 10
        assert chunk.x.st is True
        assert chunk.t.st is False  # TPDU not yet full

    def test_tpdu_boundary_splits_chunks(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=4)
        chunks = builder.add_frame(make_payload(10))
        assert [c.length for c in chunks] == [4, 4, 2]
        assert chunks[0].t.st and chunks[1].t.st and not chunks[2].t.st
        assert [c.t.ident for c in chunks] == [0, 1, 2]
        assert [c.t.sn for c in chunks] == [0, 0, 0]

    def test_figure1_frame_spans_tpdus(self):
        """Figure 1: one external PDU overlapping two (or more) TPDUs."""
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=6)
        first = builder.add_frame(make_payload(4), frame_id=70)
        second = builder.add_frame(make_payload(4), frame_id=71)
        # Frame 71 spans the TPDU boundary at unit 6: 2 units in TPDU 0,
        # 2 units in TPDU 1.
        assert [c.length for c in second] == [2, 2]
        assert second[0].t.ident == 0 and second[1].t.ident == 1
        assert second[0].x.ident == second[1].x.ident == 71
        assert second[0].x.sn == 0 and second[1].x.sn == 2
        assert first[0].x.st and not second[0].x.st and second[1].x.st

    def test_c_sn_is_continuous_across_frames(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=1000)
        a = builder.add_frame(make_payload(5))
        b = builder.add_frame(make_payload(3))
        assert a[0].c.sn == 0
        assert b[0].c.sn == 5

    def test_x_sn_restarts_per_frame(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=1000)
        builder.add_frame(make_payload(5))
        b = builder.add_frame(make_payload(3))
        assert b[0].x.sn == 0

    def test_end_of_connection_sets_c_st_and_closes_tpdu(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=100)
        chunks = builder.add_frame(make_payload(5), end_of_connection=True)
        last = chunks[-1]
        assert last.c.st and last.t.st and last.x.st

    def test_closed_builder_rejects_frames(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=100)
        builder.add_frame(make_payload(2), end_of_connection=True)
        with pytest.raises(ChunkError):
            builder.add_frame(make_payload(2))

    def test_unaligned_frame_rejected(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=8, unit_words=2)
        with pytest.raises(ChunkError):
            builder.add_frame(b"x" * 12)  # not a multiple of 8

    def test_empty_frame_rejected(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=8)
        with pytest.raises(ChunkError, match="non-empty"):
            builder.add_frame(b"")

    def test_multi_word_units(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=4, unit_words=2)
        chunks = builder.add_frame(make_payload(6, size=2))
        assert [c.length for c in chunks] == [4, 2]
        assert all(c.size == 2 for c in chunks)

    def test_payload_recoverable_in_order(self):
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=3)
        payload = make_payload(11)
        chunks = builder.add_frame(payload)
        assert b"".join(c.payload for c in chunks) == payload

    def test_invalid_parameters(self):
        with pytest.raises(ChunkError):
            ChunkStreamBuilder(connection_id=1, tpdu_units=0)
        with pytest.raises(ChunkError):
            ChunkStreamBuilder(connection_id=1, tpdu_units=4, unit_words=0)

    @pytest.mark.parametrize("unit_words", [1, 2, 4])
    def test_oversize_tpdu_rejected_at_construction(self, unit_words):
        """A TPDU that cannot fit the Figure-5 data budget is refused
        before any data is framed, not by the WSC-2 encoder afterwards."""
        limit = MAX_TPDU_SYMBOLS // unit_words
        ChunkStreamBuilder(connection_id=1, tpdu_units=limit, unit_words=unit_words)
        with pytest.raises(ChunkError):
            ChunkStreamBuilder(
                connection_id=1, tpdu_units=limit + 1, unit_words=unit_words
            )

    def test_oversize_resize_rejected_without_moving_state(self):
        builder = ChunkStreamBuilder(connection_id=1, tpdu_units=4, unit_words=2)
        builder.add_frame(make_payload(3, size=2))
        for bad in (0, MAX_TPDU_SYMBOLS // 2 + 1):
            with pytest.raises(ChunkError):
                builder.set_tpdu_units(bad)
        assert builder.tpdu_units == 4
        assert (builder.next_c_sn, builder.current_tpdu_id) == (3, 0)
        # The TPDU in progress still closes at its original size.
        assert [c.length for c in builder.add_frame(make_payload(3, size=2))] == [1, 2]

    @pytest.mark.parametrize("view", [lambda buf: buf, memoryview], ids=["bytearray", "memoryview"])
    def test_buffer_frames_yield_immutable_payload_copies(self, view):
        original = make_payload(10)
        backing = bytearray(original)
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=4)
        chunks = builder.add_frame(view(backing))
        assert all(type(c.payload) is bytes for c in chunks)
        backing[:] = bytes(len(backing))  # the caller reuses its buffer
        assert b"".join(c.payload for c in chunks) == original
