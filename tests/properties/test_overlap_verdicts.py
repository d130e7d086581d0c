"""Pairs of overlapping chunks: every consumer gives one verdict.

The receive path keeps span bookkeeping in several places — virtual
reassembly (``PduState.record``, the T level), the connection stream
(``PlacementBuffer.place``, the C level), the per-frame store
(``FrameStore.place``, the X level) — and a live
``ChunkTransportReceiver`` runs all three on every chunk.  Independent
reassemblers that disagree about the same overlapping bytes are how
evasion bugs are made ("Overlapping data in network protocols: bridging
OS and NIDS reassembly gap", PAPERS.md), so this suite enumerates the
13 Allen relations of two unit ranges x {bytes agree, one differing
byte inside the intersection, one corrupted byte outside it} x both
arrival orders x {ST on the later-ending range, no ST} and holds every
consumer to one table (:func:`second_arrival`):

- disjoint, or overlapping with agreeing bytes: the second arrival is
  *placed*, its fresh ranges exactly the range minus the intersection —
  or a *duplicate* when nothing of it is fresh;
- a differing byte inside the intersection: a *conflict*, nothing
  written, whichever chunk came first;
- whenever the bytes agree the final state is the same in both orders.

This is the first tier of ROADMAP item 2's safety net: pairs, through
the live path.  Triples, the sampled ``netsim.adversary`` tiers and the
buffering reassemblers are still open there.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.errors import InconsistentOverlapError
from repro.core.virtual import PduState
from repro.host.delivery import FrameStore, PlacementBuffer
from repro.transport.receiver import ChunkTransportReceiver
from repro.wsc.endtoend import REASON_CODE_MISMATCH
from repro.wsc.invariant import encode_tpdu

from tests.conftest import deterministic_bytes, make_chunk

Range = tuple[int, int]

UNIT = 4  # bytes per unit (SIZE = 1 word)
C_BASE = 16  # the TPDU starts 16 units into the connection: C.SN != T.SN
C_ID, T_ID, X_ID = 1, 10, 100

_BASE: dict[str, tuple[Range, Range]] = {
    "before": ((0, 3), (5, 8)),
    "meets": ((0, 4), (4, 8)),
    "overlaps": ((0, 5), (3, 8)),
    "starts": ((0, 3), (0, 8)),
    "during": ((3, 5), (0, 8)),
    "finishes": ((5, 8), (0, 8)),
    "equals": ((0, 8), (0, 8)),
}
ALLEN: dict[str, tuple[Range, Range]] = {
    **_BASE,
    **{f"{name}-inverse": (b, a) for name, (a, b) in _BASE.items() if a != b},
}
TRUTH = deterministic_bytes(8 * UNIT, seed=19)


def test_the_pairs_are_the_thirteen_allen_relations():
    def sign(x: int) -> int:
        return (x > 0) - (x < 0)

    relations = {
        (sign(a0 - b0), sign(a0 - b1), sign(a1 - b0), sign(a1 - b1))
        for (a0, a1), (b0, b1) in ALLEN.values()
    }
    assert len(ALLEN) == len(relations) == 13


def _minus(whole: Range, part: Range) -> list[Range]:
    """*whole* minus *part*, as ordered non-empty ranges."""
    pieces = [(whole[0], min(whole[1], part[0])), (max(whole[0], part[1]), whole[1])]
    return [(lo, hi) for lo, hi in pieces if lo < hi]


def second_arrival(first: Range, second: Range, differs_inside: bool):
    """THE verdict table: what the second of two arrivals must be."""
    if max(first[0], second[0]) >= min(first[1], second[1]):
        return "placed", [second]
    if differs_inside:
        return "conflict", []
    fresh = _minus(second, first)
    return ("placed" if fresh else "duplicate"), fresh


@dataclass(frozen=True)
class Piece:
    """One arriving range: its units, the bytes it carries, its ST bit."""

    units: Range
    payload: bytes
    st: bool

    @property
    def count(self) -> int:
        return self.units[1] - self.units[0]


@dataclass(frozen=True)
class Case:
    relation: str
    variant: str  # "agree" | "inside" | "outside"
    st: bool

    def pieces(self) -> tuple[Piece, Piece]:
        a, b = ALLEN[self.relation]
        end = max(a[1], b[1])
        a_bytes, b_bytes = (bytearray(TRUTH[lo * UNIT : hi * UNIT]) for lo, hi in (a, b))
        if self.variant == "inside":
            # b's copy of one shared byte disagrees with a's.
            b_bytes[(max(a[0], b[0]) - b[0]) * UNIT + 1] ^= 0x5A
        elif self.variant == "outside":
            # One byte only a single chunk carries is corrupted: nothing
            # for placement to compare it with, the WSC-2 code's to catch.
            if _minus(b, a):
                b_bytes[(_minus(b, a)[-1][0] - b[0]) * UNIT + 2] ^= 0x5A
            else:
                a_bytes[(_minus(a, b)[-1][0] - a[0]) * UNIT + 2] ^= 0x5A
        return (
            Piece(a, bytes(a_bytes), self.st and a[1] == end),
            Piece(b, bytes(b_bytes), self.st and b[1] == end),
        )

    def orders(self):
        a, b = self.pieces()
        return {"a-then-b": (a, b), "b-then-a": (b, a)}

    def expect(self, first: Piece, second: Piece):
        return second_arrival(first.units, second.units, self.variant == "inside")

    @property
    def bytes_agree(self) -> bool:
        return self.variant != "inside"


def _applicable(relation: str, variant: str) -> bool:
    a, b = ALLEN[relation]
    if variant == "inside":
        return max(a[0], b[0]) < min(a[1], b[1])
    if variant == "outside":
        return a != b
    return True


def _cases(*variants: str):
    return [
        pytest.param(
            Case(relation, variant, st), id=f"{relation}-{variant}-{'st' if st else 'nost'}"
        )
        for relation in ALLEN
        for variant in variants
        if _applicable(relation, variant)
        for st in (True, False)
    ]


CASES = _cases("agree", "inside", "outside")
GEOMETRY = _cases("agree")  # virtual reassembly sees ranges, never bytes


def _accepted(case: Case, first: Piece, second: Piece) -> list[Piece]:
    return [first] if case.expect(first, second)[0] == "conflict" else [first, second]


def _image(pieces: list[Piece], base: int = 0) -> dict[int, int]:
    """Byte offset -> value over everything *pieces* wrote."""
    return {
        (base + piece.units[0]) * UNIT + i: value
        for piece in pieces
        for i, value in enumerate(piece.payload)
    }


def _check_buffer(buffer: PlacementBuffer, accepted: list[Piece], base: int, where: str):
    image = _image(accepted, base)
    contents = buffer.contents()
    assert buffer.bytes_placed == len(image), where
    assert all(contents[offset] == value for offset, value in image.items()), where
    ends = [(base + piece.units[1]) * UNIT for piece in accepted if piece.st]
    assert buffer.total_bytes == (ends[0] if ends else None), where


# ----------------------------------------------------------------------
# T level: virtual reassembly


@pytest.mark.parametrize("case", GEOMETRY)
def test_pdu_state_record(case: Case):
    complete = {}
    for order, (first, second) in case.orders().items():
        state = PduState()
        arrival = state.record(first.units[0], first.count, first.st)
        assert arrival.fresh_ranges == (first.units,), order
        kind, fresh = case.expect(first, second)
        arrival = state.record(second.units[0], second.count, second.st)
        assert list(arrival.fresh_ranges) == fresh, order
        assert arrival.new_units == sum(hi - lo for lo, hi in fresh), order
        assert arrival.duplicate_units == second.count - arrival.new_units, order
        assert (arrival.new_units == 0) == (kind == "duplicate"), order
        assert state.total_units == (8 if case.st else None), order
        complete[order] = (state.complete, state.received.intervals())
    assert complete["a-then-b"] == complete["b-then-a"]
    assert complete["a-then-b"][0] == (case.st and case.relation.split("-")[0] != "before")


# ----------------------------------------------------------------------
# C level: the connection stream's placement buffer


def _place(buffer: PlacementBuffer, piece: Piece, base: int) -> int:
    place = buffer.place_last if piece.st else buffer.place
    return place((base + piece.units[0]) * UNIT, piece.payload)


@pytest.mark.parametrize("case", CASES)
def test_placement_buffer_place(case: Case):
    final = {}
    for order, (first, second) in case.orders().items():
        buffer = PlacementBuffer()
        assert _place(buffer, first, C_BASE) == first.count * UNIT, order
        kind, fresh = case.expect(first, second)
        if kind == "conflict":
            before = (buffer.contents(), buffer.total_bytes)
            with pytest.raises(InconsistentOverlapError):
                _place(buffer, second, C_BASE)
            assert (buffer.contents(), buffer.total_bytes) == before, order
            assert buffer.overlap_conflicts == 1, order
        else:
            placed = _place(buffer, second, C_BASE)
            assert placed == sum(hi - lo for lo, hi in fresh) * UNIT, order
            assert buffer.duplicate_bytes == second.count * UNIT - placed, order
            assert buffer.overlap_conflicts == 0, order
        _check_buffer(buffer, _accepted(case, first, second), C_BASE, order)
        final[order] = (buffer.contents(), buffer.bytes_placed, buffer.total_bytes)
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]


# ----------------------------------------------------------------------
# X level: the frame store


@pytest.mark.parametrize("case", CASES)
def test_frame_store_place(case: Case):
    final = {}
    for order, (first, second) in case.orders().items():
        store = FrameStore()
        done = [store.place(X_ID, first.units[0] * UNIT, first.payload, last=first.st)]
        kind, _ = case.expect(first, second)
        if kind == "conflict":
            with pytest.raises(InconsistentOverlapError):
                store.place(X_ID, second.units[0] * UNIT, second.payload, last=second.st)
        else:
            done.append(
                store.place(X_ID, second.units[0] * UNIT, second.payload, last=second.st)
            )
        accepted = _accepted(case, first, second)
        buffer = store.frame(X_ID)
        assert buffer is not None
        _check_buffer(buffer, accepted, 0, order)
        whole = case.st and len(_image(accepted)) == 8 * UNIT
        assert done.count(True) == whole and store.completed == [X_ID] * whole, order
        final[order] = (buffer.contents(), buffer.bytes_placed, store.completed)
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]


# ----------------------------------------------------------------------
# All three at once: a live receiver


def _chunk(piece: Piece):
    lo, _ = piece.units
    return make_chunk(
        units=piece.count, payload=piece.payload,
        c_id=C_ID, c_sn=C_BASE + lo, c_st=piece.st,
        t_id=T_ID, t_sn=lo, t_st=piece.st,
        x_id=X_ID, x_sn=lo, x_st=piece.st,
    )


@pytest.mark.parametrize("case", CASES)
def test_live_receiver(case: Case):
    # What the sender protected: the whole TPDU, uncorrupted, as one chunk.
    _, ed = encode_tpdu([_chunk(Piece((0, 8), TRUTH, True))])
    final = {}
    for order, (first, second) in case.orders().items():
        receiver = ChunkTransportReceiver()
        events = receiver.receive_chunks([_chunk(first), _chunk(second)])
        kind, _ = case.expect(first, second)
        accepted = _accepted(case, first, second)

        assert receiver.duplicate_chunks == (kind == "duplicate"), order
        assert receiver.overlap_conflict_chunks == (kind == "conflict"), order
        assert receiver.rejected_placements == receiver.budget_refused_chunks == 0, order
        _check_buffer(receiver.stream, accepted, C_BASE, order)
        frame = receiver.frames.frame(X_ID)
        assert frame is not None
        _check_buffer(frame, accepted, 0, order)

        image = _image(accepted)
        whole = case.st and len(image) == 8 * UNIT
        assert events.completed_frames == [X_ID] * whole, order
        assert receiver.closed == events.connection_closed == any(p.st for p in accepted), order

        # The verifier saw exactly the accepted chunks: with the ED chunk
        # the TPDU verifies iff they cover it and carry the sender's bytes.
        assert events.verdicts == [] and receiver.pending_tpdus() == [(C_ID, T_ID)], order
        if case.st:
            verdicts = receiver.receive_chunk(ed).verdicts
            intact = bytes(image[i] for i in sorted(image)) == TRUTH
            assert [(v.ok, v.reason) for v in verdicts] == (
                [(intact, None if intact else REASON_CODE_MISMATCH)] if whole else []
            ), order
            assert receiver.pending_tpdus() == ([] if whole else [(C_ID, T_ID)]), order
        final[order] = (
            receiver.stream_bytes(), receiver.stream.bytes_placed, receiver.stream.total_bytes,
            frame.contents(), receiver.closed, receiver.verified_tpdus(),
            receiver.corrupted_tpdus(), receiver.pending_tpdus(),
        )
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]
