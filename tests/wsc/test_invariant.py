"""Unit and property tests for the Figure 5/6 TPDU invariant."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.errors import ChunkError, ErrorDetectionMismatch
from repro.core.fragment import split_to_unit_limit
from repro.core.types import MAX_TPDU_SYMBOLS
from repro.wsc import invariant as invariant_module
from repro.wsc import wsc2 as wsc2_module
from repro.wsc.invariant import (
    C_ID_POS,
    C_ST_POS,
    T_ID_POS,
    X_PAIR_BASE,
    EdPayload,
    TpduInvariant,
    build_ed_chunk,
    decode_tpdu,
    encode_tpdu,
    parse_ed_chunk,
)
from repro.wsc.wsc2 import Wsc2Accumulator, symbols_from_bytes

from tests.conftest import make_chunk, make_payload


class TestPositionMap:
    def test_figure5_constants(self):
        assert T_ID_POS == 16384
        assert C_ID_POS == 16385
        assert C_ST_POS == 16386
        assert X_PAIR_BASE == 16387

    def test_ids_encoded_once_at_fixed_positions(self):
        invariant = TpduInvariant(c_id=0xAA, t_id=0xBB)
        expected = Wsc2Accumulator()
        expected.add_symbol(T_ID_POS, 0xBB)
        expected.add_symbol(C_ID_POS, 0xAA)
        assert invariant.value() == expected.value()

    def test_data_positions_scale_with_size(self):
        chunk = make_chunk(units=3, size=2, t_sn=4)
        invariant = TpduInvariant(chunk.c.ident, chunk.t.ident)
        invariant.add_chunk(chunk)
        expected = Wsc2Accumulator()
        expected.add_symbol(T_ID_POS, chunk.t.ident)
        expected.add_symbol(C_ID_POS, chunk.c.ident)
        expected.add_run(8, symbols_from_bytes(chunk.payload))  # 4 units * 2 words
        assert invariant.value() == expected.value()

    def test_xid_pair_positions_follow_figure6(self):
        chunk = make_chunk(units=5, t_sn=10, x_id=0x77, x_st=True)
        invariant = TpduInvariant(chunk.c.ident, chunk.t.ident)
        invariant.add_chunk(chunk)
        expected = Wsc2Accumulator()
        expected.add_symbol(T_ID_POS, chunk.t.ident)
        expected.add_symbol(C_ID_POS, chunk.c.ident)
        expected.add_run(10, symbols_from_bytes(chunk.payload))
        pair_base = X_PAIR_BASE + 2 * 14  # final unit T.SN = 10 + 5 - 1
        expected.add_symbol(pair_base, 0x77)
        expected.add_symbol(pair_base + 1, 1)
        assert invariant.value() == expected.value()

    def test_t_st_triggers_xid_with_zero_xst_value(self):
        chunk = make_chunk(units=2, t_st=True, x_id=0x31, x_st=False)
        invariant = TpduInvariant(chunk.c.ident, chunk.t.ident)
        invariant.add_chunk(chunk)
        expected = Wsc2Accumulator()
        expected.add_symbol(T_ID_POS, chunk.t.ident)
        expected.add_symbol(C_ID_POS, chunk.c.ident)
        expected.add_run(0, symbols_from_bytes(chunk.payload))
        expected.add_symbol(X_PAIR_BASE + 2 * 1, 0x31)
        expected.add_symbol(X_PAIR_BASE + 2 * 1 + 1, 0)  # no-op but explicit
        assert invariant.value() == expected.value()

    def test_c_st_encodes_one_at_fixed_position(self):
        chunk = make_chunk(units=2, c_st=True, t_st=True)
        invariant = TpduInvariant(chunk.c.ident, chunk.t.ident)
        invariant.add_chunk(chunk)
        plain = TpduInvariant(chunk.c.ident, chunk.t.ident)
        plain.add_chunk(make_chunk(units=2, t_st=True))
        # Same data; the C.ST symbol is the only difference.
        delta = Wsc2Accumulator()
        delta.add_symbol(C_ST_POS, 1)
        with_cst = invariant.value()
        without_cst = plain.value()
        assert with_cst[0] == without_cst[0] ^ delta.p0
        assert with_cst[1] == without_cst[1] ^ delta.p1

    def test_data_beyond_16384_symbols_rejected(self):
        chunk = make_chunk(units=1, t_sn=16384)
        invariant = TpduInvariant(chunk.c.ident, chunk.t.ident)
        with pytest.raises(ChunkError):
            invariant.add_chunk(chunk)

    def test_control_chunk_rejected(self):
        invariant = TpduInvariant(1, 2)
        with pytest.raises(ChunkError):
            invariant.add_chunk(build_ed_chunk(1, 2, EdPayload(0, 0, 1)))

    def test_bad_unit_range_rejected(self):
        chunk = make_chunk(units=4)
        invariant = TpduInvariant(chunk.c.ident, chunk.t.ident)
        with pytest.raises(ChunkError):
            invariant.add_units(chunk, 2, 2)
        with pytest.raises(ChunkError):
            invariant.add_units(chunk, 0, 5)


class TestImplementationEqualsPositionMap:
    """The constant / cached weights and the byte kernel must give what
    ``add_symbol`` / ``add_run`` give at the documented positions."""

    @given(
        size=st.sampled_from([1, 2, 4]),
        units=st.integers(1, 12),
        t_sn=st.one_of(st.integers(0, 40), st.none()),  # None: end at the limit
        ids=st.tuples(*[st.integers(0, 2**32 - 1)] * 3),
        st_bits=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        first=st.integers(0, 11),
        span=st.integers(1, 12),
        to_the_end=st.booleans(),
    )
    def test_value_equals_hand_built_accumulator(
        self, size, units, t_sn, ids, st_bits, first, span, to_the_end
    ):
        if t_sn is None:
            t_sn = MAX_TPDU_SYMBOLS // size - units
        c_id, t_id, x_id = ids
        c_st, t_st, x_st = st_bits
        chunk = make_chunk(
            units=units, size=size, t_sn=t_sn, seed=units * size,
            c_id=c_id, t_id=t_id, x_id=x_id, c_st=c_st, t_st=t_st, x_st=x_st,
        )
        first %= units
        last = units if to_the_end else min(units, first + span)

        invariant = TpduInvariant(c_id, t_id)
        invariant.add_units(chunk, first, last)

        expected = Wsc2Accumulator()
        expected.add_symbol(T_ID_POS, t_id)
        expected.add_symbol(C_ID_POS, c_id)
        payload = chunk.payload[first * chunk.unit_bytes : last * chunk.unit_bytes]
        expected.add_run((t_sn + first) * size, symbols_from_bytes(payload))
        if last == units:
            if c_st:
                expected.add_symbol(C_ST_POS, 1)
            if x_st or t_st:
                base = X_PAIR_BASE + 2 * (t_sn + units - 1)
                expected.add_symbol(base, x_id)
                expected.add_symbol(base + 1, int(x_st))
        assert invariant.value() == expected.value()

    def test_kernel_state_is_bounded_and_immutable(self):
        masks = wsc2_module._LANE_MASKS
        acc = Wsc2Accumulator()
        acc.add_bytes(0, make_payload(MAX_TPDU_SYMBOLS, seed=3))  # 4 * MAX bytes
        for t_sn in range(2048):  # more keys than the cache holds
            invariant_module._x_pair_weight(t_sn)
        assert wsc2_module._LANE_MASKS is masks
        assert isinstance(masks, tuple)
        assert sys.getsizeof(masks) + sum(map(sys.getsizeof, masks)) <= 64 * 1024
        cache = invariant_module._x_pair_weight.cache_info()
        assert cache.maxsize <= 1024 and cache.currsize <= cache.maxsize


class TestFragmentationInvariance:
    def _tpdu_chunks(self, frames=3, tpdu_units=24, units=8):
        builder = ChunkStreamBuilder(connection_id=5, tpdu_units=tpdu_units)
        chunks = []
        for i in range(frames):
            chunks += builder.add_frame(make_payload(units, seed=i), frame_id=50 + i)
        return [c for c in chunks if c.t.ident == 0]

    def test_value_invariant_under_any_fragmentation(self):
        chunks = self._tpdu_chunks()
        reference = encode_tpdu(chunks)[0]
        for limit in (1, 2, 3, 5, 7):
            pieces = [p for c in chunks for p in split_to_unit_limit(c, limit)]
            random.Random(limit).shuffle(pieces)
            invariant = TpduInvariant(5, 0)
            for piece in pieces:
                invariant.add_chunk(piece)
            assert invariant.value() == (reference.p0, reference.p1)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_two_stage_fragmentation_property(self, limit_a, limit_b, seed):
        chunks = self._tpdu_chunks()
        reference = encode_tpdu(chunks)[0]
        stage1 = [p for c in chunks for p in split_to_unit_limit(c, limit_a)]
        stage2 = [p for c in stage1 for p in split_to_unit_limit(c, limit_b)]
        random.Random(seed).shuffle(stage2)
        invariant = TpduInvariant(5, 0)
        for piece in stage2:
            invariant.add_chunk(piece)
        assert invariant.value() == (reference.p0, reference.p1)

    def test_partial_range_accumulation_matches_whole(self):
        """Feeding a chunk via fresh sub-ranges equals feeding it whole
        (the duplicate-overlap path of the receiver)."""
        chunk = make_chunk(units=9, t_st=True)
        whole = TpduInvariant(chunk.c.ident, chunk.t.ident)
        whole.add_chunk(chunk)
        parts = TpduInvariant(chunk.c.ident, chunk.t.ident)
        parts.add_units(chunk, 0, 4)
        parts.add_units(chunk, 4, 9)
        assert parts.value() == whole.value()

    def test_trigger_applies_only_with_final_unit(self):
        chunk = make_chunk(units=6, t_st=True, x_st=True)
        partial = TpduInvariant(chunk.c.ident, chunk.t.ident)
        partial.add_units(chunk, 0, 5)  # final unit excluded: no trigger
        whole = TpduInvariant(chunk.c.ident, chunk.t.ident)
        whole.add_chunk(chunk)
        assert partial.value() != whole.value()
        partial.add_units(chunk, 5, 6)  # now the trigger fires
        assert partial.value() == whole.value()

    def test_each_xid_encoded_exactly_once_per_tpdu(self):
        """Figure 6: three external PDUs inside one TPDU — each X.ID
        must enter the code space exactly once, including the PDU that
        starts but does not end inside the TPDU."""
        builder = ChunkStreamBuilder(connection_id=5, tpdu_units=9)
        chunks = []
        chunks += builder.add_frame(make_payload(3, seed=0), frame_id=0xA)
        chunks += builder.add_frame(make_payload(4, seed=1), frame_id=0xB)
        chunks += builder.add_frame(make_payload(4, seed=2), frame_id=0xC)
        tpdu0 = [c for c in chunks if c.t.ident == 0]
        # The last chunk of TPDU 0 ends the TPDU mid-frame-C.
        x_ids = [c.x.ident for c in tpdu0]
        assert set(x_ids) == {0xA, 0xB, 0xC}
        triggers = [
            c for c in tpdu0 if c.x.st or c.t.st
        ]
        assert [t.x.ident for t in triggers] == [0xA, 0xB, 0xC]


class TestEdChunks:
    def test_payload_roundtrip(self):
        payload = EdPayload(p0=0x11223344, p1=0xAABBCCDD, total_units=4096)
        assert EdPayload.decode(payload.encode()) == payload

    def test_bad_length_rejected(self):
        with pytest.raises(ChunkError):
            EdPayload.decode(b"\x00" * 11)

    def test_build_and_parse(self):
        payload = EdPayload(1, 2, 3)
        chunk = build_ed_chunk(7, 8, payload)
        assert chunk.c.ident == 7 and chunk.t.ident == 8
        assert parse_ed_chunk(chunk) == payload

    def test_parse_rejects_data_chunk(self):
        with pytest.raises(ChunkError):
            parse_ed_chunk(make_chunk(units=1))

    def test_encode_tpdu_totals(self):
        builder = ChunkStreamBuilder(connection_id=1, tpdu_units=12)
        chunks = builder.add_frame(make_payload(12))
        payload, ed = encode_tpdu(chunks)
        assert payload.total_units == 12
        assert ed.t.ident == 0

    def test_encode_tpdu_rejects_mixed_tpdus(self):
        builder = ChunkStreamBuilder(connection_id=1, tpdu_units=4)
        chunks = builder.add_frame(make_payload(8))
        with pytest.raises(ChunkError):
            encode_tpdu(chunks)

    def test_encode_tpdu_rejects_empty(self):
        with pytest.raises(ChunkError):
            encode_tpdu([])

    def test_encode_tpdu_is_order_independent(self):
        builder = ChunkStreamBuilder(connection_id=1, tpdu_units=10)
        chunks = builder.add_frame(make_payload(10))
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 3)]
        forward = encode_tpdu(pieces)[0]
        backward = encode_tpdu(list(reversed(pieces)))[0]
        assert forward == backward


class TestDecodeTpdu:
    def _encoded(self, units=12):
        builder = ChunkStreamBuilder(connection_id=1, tpdu_units=units)
        chunks = builder.add_frame(make_payload(units, seed=9))
        payload, _ = encode_tpdu(chunks)
        return chunks, payload

    def test_roundtrip(self):
        chunks, payload = self._encoded()
        assert decode_tpdu(chunks, payload) == b"".join(c.payload for c in chunks)

    def test_roundtrip_across_refragmentation(self):
        chunks, payload = self._encoded()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 5)]
        random.Random(7).shuffle(pieces)
        assert decode_tpdu(pieces, payload) == b"".join(c.payload for c in chunks)

    def test_missing_unit_is_reassembly_error(self):
        chunks, payload = self._encoded()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 1)]
        with pytest.raises(ErrorDetectionMismatch) as excinfo:
            decode_tpdu(pieces[:-1], payload)
        assert excinfo.value.reason == "reassembly-error"

    def test_duplicate_unit_is_reassembly_error(self):
        chunks, payload = self._encoded()
        with pytest.raises(ErrorDetectionMismatch) as excinfo:
            decode_tpdu(chunks + [chunks[0]], payload)
        assert excinfo.value.reason == "reassembly-error"

    def test_corrupt_payload_is_code_mismatch(self):
        chunks, payload = self._encoded()
        flipped = bytearray(chunks[0].payload)
        flipped[0] ^= 0x01
        bad = chunks[0].replace(payload=bytes(flipped))
        with pytest.raises(ErrorDetectionMismatch) as excinfo:
            decode_tpdu([bad] + list(chunks[1:]), payload)
        assert excinfo.value.reason == "code-mismatch"

    def test_empty_rejected(self):
        with pytest.raises(ChunkError):
            decode_tpdu([], EdPayload(0, 0, 0))
