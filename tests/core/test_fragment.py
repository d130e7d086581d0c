"""Unit tests for the Appendix C fragmentation algorithm."""

import pytest

from repro.core.errors import FragmentationError
from repro.core.fragment import fragment_for_mtu, split, split_to_unit_limit
from repro.core.types import HEADER_BYTES, PACKET_HEADER_BYTES, ChunkType
from repro.wsc.invariant import EdPayload, build_ed_chunk

from tests.helpers import make_chunk


class TestSplit:
    def test_payload_partition(self):
        chunk = make_chunk(units=10)
        a, b = split(chunk, 4)
        assert a.payload == chunk.payload[:16]
        assert b.payload == chunk.payload[16:]
        assert a.length == 4 and b.length == 6

    def test_type_size_ids_preserved(self):
        chunk = make_chunk(units=6, size=2, c_id=7, t_id=8, x_id=9)
        a, b = split(chunk, 2)
        for piece in (a, b):
            assert piece.type is chunk.type
            assert piece.size == chunk.size
            assert piece.c.ident == 7
            assert piece.t.ident == 8
            assert piece.x.ident == 9

    def test_sns_advance_by_new_len(self):
        chunk = make_chunk(units=6, c_sn=35, t_sn=0, x_sn=23)
        a, b = split(chunk, 4)
        assert (a.c.sn, a.t.sn, a.x.sn) == (35, 0, 23)
        assert (b.c.sn, b.t.sn, b.x.sn) == (39, 4, 27)

    def test_st_bits_only_on_tail(self):
        chunk = make_chunk(units=5, c_st=True, t_st=True, x_st=True)
        a, b = split(chunk, 2)
        assert not (a.c.st or a.t.st or a.x.st)
        assert b.c.st and b.t.st and b.x.st

    def test_st_clear_stays_clear(self):
        a, b = split(make_chunk(units=5), 2)
        assert not (b.c.st or b.t.st or b.x.st)

    def test_figure3_worked_example(self):
        """Figure 3: LEN=7 chunk at C.SN=36/T.SN=0/X.SN=24 splits into
        3 + 4 with the second at C.SN=40 (paper prints 40..42 region),
        T.SN=3, X.SN=27 and the T.ST bit only on the tail."""
        chunk = make_chunk(
            units=7, c_id=0xA, c_sn=36, t_id=0x51, t_sn=0, t_st=True,
            x_id=0xC, x_sn=24,
        )
        a, b = split(chunk, 3)
        assert (a.length, a.c.sn, a.t.sn, a.x.sn) == (3, 36, 0, 24)
        assert (b.length, b.c.sn, b.t.sn, b.x.sn) == (4, 39, 3, 27)
        assert not a.t.st and b.t.st

    def test_invalid_cut_points(self):
        chunk = make_chunk(units=4)
        for bad in (0, 4, 5, -1):
            with pytest.raises(FragmentationError):
                split(chunk, bad)

    def test_single_unit_is_atomic(self):
        with pytest.raises(FragmentationError):
            split(make_chunk(units=1), 1)

    def test_control_chunk_is_indivisible(self):
        ed = build_ed_chunk(1, 2, EdPayload(0, 0, 10))
        with pytest.raises(FragmentationError):
            split(ed, 1)


class TestSplitToUnitLimit:
    def test_exact_multiple(self):
        pieces = split_to_unit_limit(make_chunk(units=12), 4)
        assert [p.length for p in pieces] == [4, 4, 4]

    def test_remainder(self):
        pieces = split_to_unit_limit(make_chunk(units=10), 4)
        assert [p.length for p in pieces] == [4, 4, 2]

    def test_no_split_needed(self):
        chunk = make_chunk(units=3)
        assert split_to_unit_limit(chunk, 3) == [chunk]
        assert split_to_unit_limit(chunk, 10) == [chunk]

    def test_down_to_single_units(self):
        pieces = split_to_unit_limit(make_chunk(units=5), 1)
        assert [p.length for p in pieces] == [1] * 5

    def test_payload_reassembles_by_concatenation(self):
        chunk = make_chunk(units=9, size=2)
        pieces = split_to_unit_limit(chunk, 2)
        assert b"".join(p.payload for p in pieces) == chunk.payload

    def test_sns_are_contiguous(self):
        pieces = split_to_unit_limit(make_chunk(units=9, c_sn=100), 2)
        expected = 100
        for piece in pieces:
            assert piece.c.sn == expected
            expected += piece.length

    def test_bad_limit(self):
        with pytest.raises(FragmentationError):
            split_to_unit_limit(make_chunk(units=2), 0)

    def test_oversized_control_raises(self):
        ed = build_ed_chunk(1, 2, EdPayload(0, 0, 10))
        with pytest.raises(FragmentationError):
            split_to_unit_limit(ed, 1)

    def test_fitting_control_passes_through(self):
        ed = build_ed_chunk(1, 2, EdPayload(0, 0, 10))
        assert split_to_unit_limit(ed, 3) == [ed]


class TestFragmentForMtu:
    def test_fits_untouched(self):
        chunk = make_chunk(units=4)
        assert fragment_for_mtu(chunk, 1500, PACKET_HEADER_BYTES) == [chunk]

    def test_each_piece_fits_mtu(self):
        chunk = make_chunk(units=100)
        mtu = 128
        pieces = fragment_for_mtu(chunk, mtu, PACKET_HEADER_BYTES)
        assert len(pieces) > 1
        for piece in pieces:
            assert PACKET_HEADER_BYTES + piece.wire_bytes <= mtu

    def test_respects_atomic_units(self):
        chunk = make_chunk(units=50, size=4)  # 16-byte atomic units
        pieces = fragment_for_mtu(chunk, 100, PACKET_HEADER_BYTES)
        for piece in pieces:
            assert piece.payload_bytes % 16 == 0

    def test_mtu_below_one_unit_raises(self):
        chunk = make_chunk(units=4, size=8)  # 32-byte units
        with pytest.raises(FragmentationError):
            fragment_for_mtu(chunk, HEADER_BYTES + PACKET_HEADER_BYTES + 16, PACKET_HEADER_BYTES)

    def test_oversized_control_raises(self):
        ed = build_ed_chunk(1, 2, EdPayload(0, 0, 10))
        with pytest.raises(FragmentationError):
            fragment_for_mtu(ed, HEADER_BYTES + PACKET_HEADER_BYTES + 4, PACKET_HEADER_BYTES)

    def test_type_is_preserved(self):
        pieces = fragment_for_mtu(make_chunk(units=40), 120, PACKET_HEADER_BYTES)
        assert all(p.type is ChunkType.DATA for p in pieces)
