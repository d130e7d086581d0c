"""Unit tests for end-to-end error detection, including Table 1 rows."""

import gc
import random
from dataclasses import replace
from itertools import permutations

import pytest

from repro.core.builder import ChunkStreamBuilder
from repro.core.fragment import split_to_unit_limit
from repro.core.tuples import FramingTuple
from repro.wsc.endtoend import (
    REASON_CODE_MISMATCH,
    REASON_CONSISTENCY,
    REASON_REASSEMBLY,
    EndToEndReceiver,
)
from repro.wsc.invariant import EdPayload, TpduInvariant, build_ed_chunk, encode_tpdu

from tests.conftest import make_payload


def _tpdu(tpdu_units=12, seed=0, frames=2, connection_id=5):
    """A complete TPDU (data chunks + ED chunk)."""
    builder = ChunkStreamBuilder(connection_id=connection_id, tpdu_units=tpdu_units)
    chunks = []
    for i in range(frames):
        chunks += builder.add_frame(
            make_payload(tpdu_units // frames, seed=seed * 10 + i), frame_id=seed * 100 + i
        )
    tpdu0 = [c for c in chunks if c.t.ident == 0]
    _, ed = encode_tpdu(tpdu0)
    return tpdu0, ed


def _run(receiver, chunks):
    verdicts = []
    for chunk in chunks:
        verdicts += receiver.receive(chunk)
    return verdicts


class TestHappyPaths:
    def test_in_order_verifies(self):
        chunks, ed = _tpdu()
        verdicts = _run(EndToEndReceiver(), chunks + [ed])
        assert len(verdicts) == 1 and verdicts[0].ok

    def test_any_order_verifies(self):
        chunks, ed = _tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 2)] + [ed]
        for seed in range(5):
            random.Random(seed).shuffle(pieces)
            verdicts = _run(EndToEndReceiver(), pieces)
            assert len(verdicts) == 1 and verdicts[0].ok

    def test_ed_first_verifies(self):
        chunks, ed = _tpdu()
        verdicts = _run(EndToEndReceiver(), [ed] + chunks)
        assert len(verdicts) == 1 and verdicts[0].ok

    def test_duplicates_do_not_break_checksum(self):
        """Section 3.3: processing the same piece twice would corrupt an
        incremental checksum; duplicate rejection must prevent it."""
        chunks, ed = _tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 3)]
        stream = pieces[:2] + pieces[:2] + pieces[1:] + [ed, ed]
        verdicts = _run(EndToEndReceiver(), stream)
        assert len(verdicts) == 1 and verdicts[0].ok

    def test_overlapping_retransmission_fragments(self):
        """A retransmission fragmented differently than the original."""
        chunks, ed = _tpdu()
        original = [p for c in chunks for p in split_to_unit_limit(c, 4)]
        retransmit = [p for c in chunks for p in split_to_unit_limit(c, 3)]
        stream = original[::2] + retransmit + [ed]
        verdicts = _run(EndToEndReceiver(), stream)
        assert len(verdicts) == 1 and verdicts[0].ok

    def test_multiple_tpdus_verdict_separately(self):
        receiver = EndToEndReceiver()
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=8)
        verdicts = []
        for seed in range(3):
            chunks = builder.add_frame(make_payload(8, seed=seed), frame_id=seed)
            _, ed = encode_tpdu(chunks)
            verdicts += _run(receiver, chunks + [ed])
        assert len(verdicts) == 3 and all(v.ok for v in verdicts)
        assert receiver.verified == 3

    def test_late_duplicate_after_verdict_is_ignored(self):
        chunks, ed = _tpdu()
        receiver = EndToEndReceiver()
        _run(receiver, chunks + [ed])
        assert receiver.receive(chunks[0]) == []

    def test_abort_pending_classifies_incomplete(self):
        chunks, ed = _tpdu()
        receiver = EndToEndReceiver()
        _run(receiver, chunks[:1] + [ed])
        verdicts = receiver.abort_pending()
        assert len(verdicts) == 1
        assert verdicts[0].reason == REASON_REASSEMBLY

    def test_evict(self):
        chunks, ed = _tpdu()
        receiver = EndToEndReceiver()
        _run(receiver, chunks + [ed])
        receiver.evict(5, 0)
        assert receiver.pending() == []


class TestTable1DataAndControl:
    """Rows: Data and Control detected by the error detection code."""

    def test_payload_corruption_detected(self):
        chunks, ed = _tpdu()
        bad = chunks[0].replace(
            payload=b"\xff" + chunks[0].payload[1:],
        )
        verdicts = _run(EndToEndReceiver(), [bad] + chunks[1:] + [ed])
        assert verdicts[-1].reason == REASON_CODE_MISMATCH

    def test_ed_payload_corruption_detected(self):
        chunks, ed = _tpdu()
        bad_ed = build_ed_chunk(5, 0, EdPayload(0x1234, 0x4242, 12))
        verdicts = _run(EndToEndReceiver(), chunks + [bad_ed])
        assert verdicts[-1].reason in (REASON_CODE_MISMATCH, REASON_REASSEMBLY)


class TestTable1Ids:
    """Rows: C.ID, T.ID, X.ID detected by the error detection code."""

    def test_c_id_corruption_detected_by_code(self):
        """All fragments land under the wrong connection: the TPDU
        completes there, but the invariant encodes the received C.ID."""
        chunks, ed = _tpdu()
        rerouted = [c.with_tuples(c=replace(c.c, ident=6)) for c in chunks]
        bad_ed = ed.replace(c=replace(ed.c, ident=6))
        verdicts = _run(EndToEndReceiver(), rerouted + [bad_ed])
        assert verdicts[-1].reason == REASON_CODE_MISMATCH

    def test_t_id_corruption_detected_by_code(self):
        chunks, ed = _tpdu()
        renamed = [c.with_tuples(t=replace(c.t, ident=99)) for c in chunks]
        bad_ed = ed.replace(t=replace(ed.t, ident=99))
        verdicts = _run(EndToEndReceiver(), renamed + [bad_ed])
        assert verdicts[-1].reason == REASON_CODE_MISMATCH

    def test_x_id_corruption_detected_by_code(self):
        chunks, ed = _tpdu()
        target = next(i for i, c in enumerate(chunks) if c.x.st or c.t.st)
        bad = chunks[target].with_tuples(
            x=replace(chunks[target].x, ident=chunks[target].x.ident + 1)
        )
        stream = chunks[:target] + [bad] + chunks[target + 1 :] + [ed]
        verdicts = _run(EndToEndReceiver(), stream)
        # X.SN consistency uses X.ID too, so either the code or the
        # consistency check may fire first; the paper's table lists the
        # code as the detector when SNs remain consistent.
        assert not verdicts[-1].ok


class TestTable1StBits:
    """Rows: C.ST and X.ST detected by the error detection code;
    T.ST by reassembly error."""

    def test_c_st_set_corruption_detected(self):
        chunks, ed = _tpdu()
        last = len(chunks) - 1
        bad = chunks[last].with_tuples(c=replace(chunks[last].c, st=True))
        verdicts = _run(EndToEndReceiver(), chunks[:last] + [bad, ed])
        assert verdicts[-1].reason == REASON_CODE_MISMATCH

    def test_x_st_flip_detected(self):
        chunks, ed = _tpdu()
        target = next(i for i, c in enumerate(chunks) if c.x.st)
        bad = chunks[target].with_tuples(x=replace(chunks[target].x, st=False))
        stream = chunks[:target] + [bad] + chunks[target + 1 :] + [ed]
        verdicts = _run(EndToEndReceiver(), stream)
        assert verdicts[-1].reason == REASON_CODE_MISMATCH

    def test_t_st_cleared_detected_as_reassembly_error(self):
        chunks, ed = _tpdu()
        target = next(i for i, c in enumerate(chunks) if c.t.st)
        bad = chunks[target].with_tuples(t=replace(chunks[target].t, st=False))
        stream = chunks[:target] + [bad] + chunks[target + 1 :] + [ed]
        verdicts = _run(EndToEndReceiver(), stream)
        assert verdicts and verdicts[-1].reason == REASON_REASSEMBLY

    def test_t_st_moved_early_detected(self):
        chunks, ed = _tpdu()
        bad = chunks[0].with_tuples(t=replace(chunks[0].t, st=True))
        stream = [bad] + chunks[1:] + [ed]
        verdicts = _run(EndToEndReceiver(), stream)
        assert verdicts and verdicts[0].reason == REASON_REASSEMBLY


class TestMisplacedTStInEveryArrivalOrder:
    """Table 1 files a corrupted T.ST under "reassembly error"; which
    packet arrived first must not change that."""

    @staticmethod
    def _reasons(stream):
        return {
            tuple(v.reason for v in _run(EndToEndReceiver(), order))
            for order in permutations(stream)
        }

    def test_t_st_set_on_the_first_of_two_chunks(self):
        # Two of a 12-unit TPDU's three chunks plus the ED chunk: the
        # bogus 4-unit end sits below units 4-7.
        chunks, ed = _tpdu(frames=3)
        bad = chunks[0].with_tuples(t=replace(chunks[0].t, st=True))
        assert self._reasons([bad, chunks[1], ed]) == {(REASON_REASSEMBLY,)}

    @pytest.mark.parametrize("target", [0, 1])
    def test_t_st_set_early_in_a_three_chunk_tpdu(self, target):
        chunks, ed = _tpdu(frames=3)
        stream = list(chunks)
        stream[target] = chunks[target].with_tuples(
            t=replace(chunks[target].t, st=True)
        )
        assert self._reasons(stream + [ed]) == {(REASON_REASSEMBLY,)}

    def test_t_sn_pushed_past_the_end(self):
        # (12, 6) + (6, 6, ST): ST-first says "beyond PDU end"; ST-last
        # used to accept the end and report a consistency failure.
        chunks, ed = _tpdu(frames=2)
        bad = chunks[0].with_tuples(t=replace(chunks[0].t, sn=12))
        assert self._reasons([bad, chunks[1], ed]) == {(REASON_REASSEMBLY,)}

    def test_stray_chunk_above_a_one_chunk_tpdu(self):
        # A chunk whose corrupted T.ID lands it in a complete one-chunk
        # TPDU, above its end.  Arriving first it used to be summed into
        # the WSC-2 value and left for the code to catch.
        chunks, ed = _tpdu(frames=1)
        (real,) = chunks
        other, _ = _tpdu(frames=1, seed=3)
        stray = other[0].with_tuples(
            t=replace(real.t, sn=real.length, st=False),
            c=replace(real.c, sn=real.c.sn + real.length),
        )
        for order in permutations([real, stray]):
            verdicts = _run(EndToEndReceiver(), list(order) + [ed])
            assert [v.reason for v in verdicts] == [REASON_REASSEMBLY], order


class TestTable1Sns:
    """Rows: C.SN and X.SN detected by the consistency check;
    T.SN by reassembly error."""

    def test_c_sn_corruption_detected_by_consistency(self):
        chunks, ed = _tpdu()
        bad = chunks[1].with_tuples(c=replace(chunks[1].c, sn=chunks[1].c.sn + 3))
        verdicts = _run(EndToEndReceiver(), [chunks[0], bad] + chunks[2:] + [ed])
        assert verdicts[-1].reason == REASON_CONSISTENCY

    def test_x_sn_corruption_detected_by_consistency(self):
        chunks, ed = _tpdu()
        # In-network fragmentation puts several chunks of one external
        # PDU inside the TPDU; corrupt the X.SN of a later piece.
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 3)]
        idx = next(
            i
            for i, p in enumerate(pieces)
            if p.x.ident == pieces[0].x.ident and p.x.sn > 0
        )
        bad = pieces[idx].with_tuples(x=replace(pieces[idx].x, sn=pieces[idx].x.sn + 2))
        stream = pieces[:idx] + [bad] + pieces[idx + 1 :] + [ed]
        verdicts = _run(EndToEndReceiver(), stream)
        assert verdicts[-1].reason == REASON_CONSISTENCY

    def test_t_sn_overlap_detected_as_reassembly_error(self):
        chunks, ed = _tpdu()
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 4)]
        bad = pieces[1].with_tuples(t=replace(pieces[1].t, sn=pieces[1].t.sn + 40))
        verdicts = _run(EndToEndReceiver(), [pieces[0], bad] + pieces[2:] + [ed])
        assert verdicts and verdicts[-1].reason in (
            REASON_REASSEMBLY,
            REASON_CONSISTENCY,
        )


class TestCompletionByCount:
    def test_count_completion_reports_missing_st(self):
        """Every unit present but T.ST lost: the ED unit count converts
        the would-be timeout into an immediate reassembly verdict."""
        chunks, ed = _tpdu()
        stripped = [
            c.with_tuples(t=replace(c.t, st=False)) if c.t.st else c for c in chunks
        ]
        verdicts = _run(EndToEndReceiver(), stripped + [ed])
        assert len(verdicts) == 1
        assert verdicts[0].reason == REASON_REASSEMBLY
        assert "T.ST" in verdicts[0].detail or "ST" in verdicts[0].detail

    def test_total_mismatch_detected(self):
        chunks, _ = _tpdu()
        _, good_ed = encode_tpdu(chunks)
        payload = EdPayload(
            *_parities(good_ed), total_units=5
        )
        bad_ed = build_ed_chunk(5, 0, payload)
        verdicts = _run(EndToEndReceiver(), chunks + [bad_ed])
        assert not verdicts[-1].ok

    def test_conflicting_duplicate_eds_detected(self):
        chunks, ed = _tpdu()
        other = build_ed_chunk(5, 0, EdPayload(1, 2, 12))
        verdicts = _run(EndToEndReceiver(), [ed, other] + chunks)
        assert verdicts and not verdicts[0].ok


def _reachable_invariants(root) -> int:
    """Live ``TpduInvariant`` objects reachable from *root*."""
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found += isinstance(obj, TpduInvariant)
        stack.extend(gc.get_referents(obj))
    return found


class TestVerdictedTpdusAreNotKept:
    """A verdict leaves a marker, not the TPDU's checker: the receiver's
    state is bounded by what is in flight, not by what it ever saw."""

    def test_only_pending_tpdus_hold_an_invariant(self):
        receiver = EndToEndReceiver()
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=8)
        for seed in range(64):
            chunks = builder.add_frame(make_payload(8, seed=seed), frame_id=seed)
            _run(receiver, chunks + [encode_tpdu(chunks)[1]])
        for seed in (64, 65):  # two TPDUs still waiting for their ED chunk
            _run(receiver, builder.add_frame(make_payload(8, seed=seed), frame_id=seed))
        assert receiver.verified == 64
        assert len(receiver.pending()) == 2
        assert _reachable_invariants(receiver) == 2

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_late_duplicates_of_a_verdicted_tpdu_change_nothing(self, corrupt):
        chunks, ed = _tpdu()
        if corrupt:
            chunks[0] = chunks[0].replace(payload=b"\xff" + chunks[0].payload[1:])
        receiver = EndToEndReceiver()
        assert len(_run(receiver, chunks + [ed])) == 1
        counts = (receiver.verified, receiver.corrupted)
        assert counts == ((0, 1) if corrupt else (1, 0))
        assert _run(receiver, [chunks[0], ed, chunks[-1], ed]) == []
        assert (receiver.verified, receiver.corrupted) == counts
        assert receiver.pending() == [] and _reachable_invariants(receiver) == 0

    def test_second_abort_pending_returns_nothing(self):
        chunks, ed = _tpdu()
        receiver = EndToEndReceiver()
        _run(receiver, chunks[:1] + [ed])
        assert len(receiver.abort_pending()) == 1
        assert receiver.abort_pending() == []
        assert receiver.corrupted == 1 and receiver.pending() == []
        assert receiver.receive(chunks[1]) == []  # aborted is verdicted too
        assert _reachable_invariants(receiver) == 0


def _parities(ed_chunk):
    from repro.wsc.invariant import parse_ed_chunk

    payload = parse_ed_chunk(ed_chunk)
    return payload.p0, payload.p1
