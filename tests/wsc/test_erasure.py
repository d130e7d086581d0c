"""Unit and property tests for WSC-2 erasure repair."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.fragment import split_to_unit_limit
from repro.paper.erasure import ErasureError, recover_erasures, repair_missing_word
from repro.wsc.invariant import TpduInvariant, encode_tpdu
from repro.wsc.wsc2 import Wsc2Accumulator, wsc2_encode

from tests.conftest import make_payload

symbols_strategy = st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=48)


def _accumulate_without(symbols, missing):
    acc = Wsc2Accumulator()
    for position, value in enumerate(symbols):
        if position not in missing:
            acc.add_symbol(position, value)
    return acc


class TestRecoverErasures:
    def test_zero_erasures_consistent(self):
        symbols = [1, 2, 3]
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, set())
        assert recover_erasures(acc, p0, p1, []) == {}

    def test_zero_erasures_with_corruption_raises(self):
        symbols = [1, 2, 3]
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, set())
        acc.add_symbol(1, 0xFF)  # corrupt a present symbol
        with pytest.raises(ErasureError):
            recover_erasures(acc, p0, p1, [])

    def test_single_erasure(self):
        symbols = [10, 20, 30, 40, 50]
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, {2})
        assert recover_erasures(acc, p0, p1, [2]) == {2: 30}

    def test_single_erasure_with_corruption_detected(self):
        symbols = [10, 20, 30, 40, 50]
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, {2})
        acc.add_symbol(4, 0x1)  # flip a present symbol too
        with pytest.raises(ErasureError):
            recover_erasures(acc, p0, p1, [2])

    def test_double_erasure(self):
        symbols = [111, 222, 333, 444, 555, 666]
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, {1, 4})
        solved = recover_erasures(acc, p0, p1, [1, 4])
        assert solved == {1: 222, 4: 555}

    def test_double_erasure_adjacent(self):
        symbols = list(range(1, 20))
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, {7, 8})
        assert recover_erasures(acc, p0, p1, [7, 8]) == {7: 8, 8: 9}

    def test_three_erasures_rejected(self):
        symbols = [1, 2, 3, 4]
        p0, p1 = wsc2_encode(symbols)
        acc = _accumulate_without(symbols, {0, 1, 2})
        with pytest.raises(ErasureError):
            recover_erasures(acc, p0, p1, [0, 1, 2])

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ErasureError):
            recover_erasures(Wsc2Accumulator(), 0, 0, [3, 3])

    @given(symbols_strategy, st.data())
    @settings(max_examples=60)
    def test_single_erasure_property(self, symbols, data):
        p0, p1 = wsc2_encode(symbols)
        j = data.draw(st.integers(0, len(symbols) - 1))
        acc = _accumulate_without(symbols, {j})
        assert recover_erasures(acc, p0, p1, [j]) == {j: symbols[j]}

    @given(symbols_strategy, st.data())
    @settings(max_examples=60)
    def test_double_erasure_property(self, symbols, data):
        p0, p1 = wsc2_encode(symbols)
        j = data.draw(st.integers(0, len(symbols) - 1))
        k = data.draw(
            st.integers(0, len(symbols) - 1).filter(lambda v: v != j)
        )
        acc = _accumulate_without(symbols, {j, k})
        solved = recover_erasures(acc, p0, p1, [j, k])
        assert solved == {j: symbols[j], k: symbols[k]}


class TestTpduRepair:
    def _tpdu(self, units=16, seed=3):
        builder = ChunkStreamBuilder(connection_id=6, tpdu_units=units)
        chunks = builder.add_frame(make_payload(units, seed=seed), frame_id=0)
        payload, ed = encode_tpdu(chunks)
        return chunks, payload

    def test_repair_one_lost_interior_word(self):
        chunks, ed_payload = self._tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 1)]
        lost = pieces[5]  # interior unit: no trigger bits
        assert not (lost.t.st or lost.x.st or lost.c.st)
        invariant = TpduInvariant(6, 0)
        for piece in pieces:
            if piece is not lost:
                invariant.add_chunk(piece)
        word = repair_missing_word(
            invariant, ed_payload.p0, ed_payload.p1, lost.t.sn
        )
        assert word == lost.payload

    def test_repair_of_trigger_unit_refuses(self):
        """The final (X.ST/T.ST) unit also owes trigger symbols to the
        invariant; single-word repair must detect the inconsistency and
        refuse rather than fabricate data."""
        chunks, ed_payload = self._tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 1)]
        lost = next(p for p in pieces if p.t.st or p.x.st)
        invariant = TpduInvariant(6, 0)
        for piece in pieces:
            if piece is not lost:
                invariant.add_chunk(piece)
        with pytest.raises(ErasureError):
            repair_missing_word(invariant, ed_payload.p0, ed_payload.p1, lost.t.sn)

    def test_repaired_tpdu_verifies_end_to_end(self):
        chunks, ed_payload = self._tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 1)]
        lost_index = 4
        lost = pieces[lost_index]
        invariant = TpduInvariant(6, 0)
        for piece in pieces:
            if piece is not lost:
                invariant.add_chunk(piece)
        word = repair_missing_word(
            invariant, ed_payload.p0, ed_payload.p1, lost.t.sn
        )
        # Feed the repaired word back: the invariant now matches.
        assert word == lost.payload
        invariant.add_chunk(lost)
        assert invariant.matches(ed_payload.p0, ed_payload.p1)

    def test_repair_wrong_position_detected(self):
        chunks, ed_payload = self._tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 1)]
        lost = pieces[5]
        invariant = TpduInvariant(6, 0)
        for piece in pieces:
            if piece is not lost:
                invariant.add_chunk(piece)
        with pytest.raises(ErasureError):
            repair_missing_word(
                invariant, ed_payload.p0, ed_payload.p1, lost.t.sn + 3
            )
