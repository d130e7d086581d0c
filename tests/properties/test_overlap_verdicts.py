"""Overlapping chunks, every arrival order: every consumer gives one verdict.

The receive path keeps span bookkeeping at three levels — virtual
reassembly (``PduState.record``, the T level), the connection stream
(``PlacementBuffer.place``, the C level, the only place payload bytes
are held) and the frame store (``FrameStore.place``, the X level, a
window of the stream per frame) — and a live ``ChunkTransportReceiver``
runs all three on every chunk; ``ReassembleReceiver`` is the buffering
contrast strategy over the same ``PlacementBuffer``.  Independent
reassemblers that disagree about the same overlapping bytes are how
evasion bugs are made ("Overlapping data in network protocols: bridging
OS and NIDS reassembly gap", PAPERS.md), so this suite holds every
consumer to one table.

**Pairs** (:func:`second_arrival`): the 13 Allen relations of two unit
ranges x {bytes agree, one differing byte inside the intersection, one
corrupted byte outside it} x both arrival orders x {ST on the
later-ending range, no ST}:

- disjoint, or overlapping with agreeing bytes: the second arrival is
  *placed*, its fresh ranges exactly the range minus the intersection —
  or a *duplicate* when nothing of it is fresh;
- a differing byte inside the intersection: a *conflict*, nothing
  written, whichever chunk came first;
- whenever the bytes agree the final state is the same in both orders.

**Triples** (:func:`replay`): every three ranges over four cut points,
all six arrival orders, the same verdicts per arrival from a byte-image
model, and one final state across the six orders whenever the bytes
agree.

**Named rows**: three reassemblers resolve an overlap their own way, and
each gets a column over all pairs and triples with its policy written as
a model beside ``replay`` — ``ReorderReceiver`` first-wins
(:func:`first_wins`), ``core.reassemble.coalesce`` contained-and-agreeing
dropped, any other overlap raised (:func:`coalesce_row`), and
``baselines.ipfrag.IpReassembler`` last-wins, a completed datagram
forgotten (:func:`last_wins`).  Where the copies agree, each model holds
only the table's bytes.

**Displacement** (``test_displacement_contradiction_*``): the one
verdict that is *not* order-free, written down rather than hidden — a
frame lies where its first chunk put it.

Whole transfers, reordered, are the sampled tier in
``test_overlap_sampled.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, permutations

import pytest

from repro.core.errors import InconsistentOverlapError, ReassemblyError
from repro.core.reassemble import coalesce
from repro.core.virtual import PduState
from repro.host.delivery import FrameStore, PlacementBuffer
from repro.paper.ipfrag import FRAG_UNIT, IpFragment, IpReassembler
from repro.paper.receiver import ReassembleReceiver, ReorderReceiver
from repro.transport.receiver import ChunkTransportReceiver
from repro.wsc.endtoend import REASON_CODE_MISMATCH
from repro.wsc.invariant import encode_tpdu

from tests.helpers import deterministic_bytes, make_chunk, place_frame

Range = tuple[int, int]

UNIT = 4  # bytes per unit (SIZE = 1 word)
C_BASE = 16  # the TPDU starts 16 units into the connection: C.SN != T.SN
FRAME_BASE = C_BASE * UNIT  # stream offset of the frame's first byte
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
# X level: the frame store, a window of the stream it is driven through


def _place_frame(store: FrameStore, piece: Piece) -> bool:
    return place_frame(
        store, X_ID, piece.units[0] * UNIT, piece.payload, last=piece.st, base=FRAME_BASE
    )


def _check_frame(store: FrameStore, accepted: list[Piece], where: str):
    window = store.frame(X_ID)
    assert window is not None, where
    contents = store.contents(X_ID)
    assert all(contents[offset] == value for offset, value in _image(accepted).items()), where
    ends = [piece.units[1] * UNIT for piece in accepted if piece.st]
    assert (window.base, window.total_bytes, window.placed_to) == (
        FRAME_BASE,
        ends[0] if ends else None,
        max(piece.units[1] for piece in accepted) * UNIT,
    ), where
    assert len(contents) == (window.total_bytes or window.placed_to), where


@pytest.mark.parametrize("case", CASES)
def test_frame_store_place(case: Case):
    final = {}
    for order, (first, second) in case.orders().items():
        store = FrameStore(PlacementBuffer())
        done = [_place_frame(store, first)]
        kind, _ = case.expect(first, second)
        if kind == "conflict":
            # The stream holds the frame's bytes, so the refusal is the
            # stream's: the frame never hears of the chunk.
            before = replace(store.frame(X_ID))
            with pytest.raises(InconsistentOverlapError):
                _place_frame(store, second)
            assert store.frame(X_ID) == before, order
        else:
            done.append(_place_frame(store, second))
        accepted = _accepted(case, first, second)
        _check_frame(store, accepted, order)
        # Placed once: the stream is the frame's only copy.
        _check_buffer(store.stream, [replace(p, st=False) for p in accepted], C_BASE, order)
        whole = case.st and len(_image(accepted)) == 8 * UNIT
        assert done.count(True) == whole and store.completed == [X_ID] * whole, order
        final[order] = (store.contents(X_ID), store.frame(X_ID), store.completed)
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]


# ----------------------------------------------------------------------
# All three at once: a live receiver


def _chunk(piece: Piece, c_base: int = C_BASE):
    lo, _ = piece.units
    return make_chunk(
        units=piece.count, payload=piece.payload,
        c_id=C_ID, c_sn=c_base + lo, c_st=piece.st,
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
        _check_frame(receiver.frames, accepted, order)

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
            receiver.frames.contents(X_ID), receiver.frames.frame(X_ID), receiver.closed,
            receiver.verified_tpdus(),
            receiver.corrupted_tpdus(), receiver.pending_tpdus(),
        )
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]


# ----------------------------------------------------------------------
# The buffering contrast strategy: physical reassembly per TPDU


def _reassembled(receiver: ReassembleReceiver):
    return (
        [(e.offset, e.nbytes) for e in receiver.events], receiver.app.contents(),
        receiver.buffered_bytes, dict(receiver.ledger.touches),
    )


@pytest.mark.parametrize("case", CASES)
def test_reassemble_receiver(case: Case):
    final = {}
    for order, (first, second) in case.orders().items():
        receiver = ReassembleReceiver()
        receiver.on_chunk(0.0, _chunk(first))
        kind, _ = case.expect(first, second)
        accepted = _accepted(case, first, second)
        before = _reassembled(receiver)
        if receiver.events:
            # The first arrival was the whole TPDU: delivered, its buffer
            # freed.  A reassembler has nothing left to compare a late
            # arrival with, so it is skipped unseen, whatever it carries
            # (first-wins by construction; the immediate receiver's stream
            # stays comparable, which is why the transport uses that one).
            receiver.on_chunk(1.0, _chunk(second))
            assert _reassembled(receiver) == before, order
            accepted = [first]
        elif kind == "conflict":
            with pytest.raises(InconsistentOverlapError):
                receiver.on_chunk(1.0, _chunk(second))
            assert _reassembled(receiver) == before, order
        else:
            receiver.on_chunk(1.0, _chunk(second))
        image = _image(accepted)
        whole = case.st and len(image) == 8 * UNIT
        # Two touches for a delivered TPDU, one for bytes still parked;
        # nothing reaches the application before the whole TPDU does.
        assert receiver.ledger.total_bytes_moved == len(image) * (1 + whole), order
        assert receiver.buffered_bytes == (0 if whole else len(image)), order
        assert [(e.offset, e.nbytes) for e in receiver.events] == (
            [(FRAME_BASE, 8 * UNIT)] * whole
        ), order
        if whole:
            assert receiver.app.contents()[FRAME_BASE:] == bytes(image[i] for i in sorted(image))
        final[order] = _reassembled(receiver)
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]


def test_reassemble_receiver_refuses_a_contradicted_t_st_in_both_orders():
    """The buffering reassembler obeys the end-marker rule too: a T.ST
    that ends the TPDU below bytes it holds is refused whichever chunk
    came first (it used to shrink the TPDU in one order only)."""
    bogus_end = Piece((2, 4), TRUTH[2 * UNIT : 4 * UNIT], True)
    beyond = Piece((4, 8), TRUTH[4 * UNIT :], False)
    for order in permutations([bogus_end, beyond]):
        receiver = ReassembleReceiver()
        receiver.on_chunk(0.0, _chunk(order[0]))
        with pytest.raises(ValueError, match="beyond region|contradicts the region's known end"):
            receiver.on_chunk(1.0, _chunk(order[1]))
        assert receiver.events == [] and receiver.buffered_bytes == order[0].count * UNIT, order


# ----------------------------------------------------------------------
# Named rows: three reassemblers that resolve an overlap their own way


def first_wins(pieces) -> dict[int, int]:
    """``ReorderReceiver``'s row: every byte is its first copy's; a re-sent
    byte is neither compared nor moved again."""
    image: dict[int, int] = {}
    for piece in pieces:
        for offset, value in _image([piece]).items():
            image.setdefault(offset, value)
    return image


def coalesce_row(pieces) -> tuple[list[Range], dict[int, int]] | None:
    """``coalesce``'s row over the pieces of one frame, which the pool's
    order cannot change: in (start, longest first) order a piece that
    starts at or past the end of the run before it extends or follows
    it, one inside the run with equal bytes is dropped, and any other
    overlap raises (None).  Returns the runs and their byte image."""
    runs: list[list[int]] = []
    image: dict[int, int] = {}
    for piece in sorted(pieces, key=lambda p: (p.units[0], -p.count)):
        (lo, hi), own = piece.units, _image([piece])
        if runs and lo < runs[-1][1]:
            if hi > runs[-1][1] or any(image[o] != value for o, value in own.items()):
                return None
            continue
        if runs and lo == runs[-1][1]:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
        image.update(own)
    return [(lo, hi) for lo, hi in runs], image


def last_wins(pieces) -> tuple[list[dict[int, int]], dict[int, int]]:
    """``IpReassembler``'s row: a piece that brings one fresh byte writes
    every byte it carries (last-wins), a piece wholly held is a duplicate
    dropped unseen, its end marker too, and a completed datagram is handed
    up and forgotten, so a later piece starts it again.  Returns the
    completed images and the image still held."""
    done: list[dict[int, int]] = []
    image: dict[int, int] = {}
    total = None
    for piece in pieces:
        own = _image([piece])
        if own.keys() <= image.keys():
            continue
        image.update(own)
        if piece.st:
            total = piece.units[1] * UNIT
        if total is not None and image.keys() >= set(range(total)):
            done.append(image)
            image, total = {}, None
    return done, image


def _rows_agree_with_the_table(pieces):
    """Where the bytes agree the named rows hold only the table's bytes."""
    verdicts, image = replay(pieces)
    if any(kind == "conflict" for kind, _ in verdicts):
        return
    assert first_wins(pieces) == image
    row = coalesce_row(pieces)
    done, held = last_wins(pieces)
    for part in ([row[1]] if row else []) + done + [held]:
        assert part.items() <= image.items()


def test_the_named_rows_are_the_table_when_bytes_agree():
    for case in (param.values[0] for param in CASES):
        for order in case.orders().values():
            _rows_agree_with_the_table(list(order))
    for triples in (param.values[0] for param in TRIPLES):
        for triple in triples:
            for order in permutations(triple.pieces()):
                _rows_agree_with_the_table(list(order))


# The temporal reorder queue, from C.SN 0 (in-order pieces pass straight
# through) and from C_BASE (everything parks until ``finish``).
BASES = [pytest.param(0, id="from-zero"), pytest.param(C_BASE, id="parked")]


def _reorder(pieces, base: int, where) -> tuple:
    receiver = ReorderReceiver()
    for time, piece in enumerate(pieces):
        receiver.on_chunk(float(time), _chunk(piece, base))
    receiver.finish(float(len(pieces)))
    image = first_wins(pieces)
    contents = receiver.app.contents()
    assert receiver.delivered_bytes == receiver.app.bytes_placed == len(image), where
    assert all(contents[base * UNIT + o] == value for o, value in image.items()), where
    # Every fresh byte crosses in once, and a parked one out once.
    touches = receiver.ledger.touches
    parked = touches.get("nic-to-buffer", 0)
    assert touches.get("nic-to-app", 0) + parked == len(image), where
    assert touches.get("buffer-to-app", 0) == parked and receiver.buffered_bytes == 0, where
    offsets = [e.offset for e in receiver.events]
    assert len(set(offsets)) == len(offsets), where
    return contents, receiver.delivered_bytes


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("case", CASES)
def test_reorder_receiver(case: Case, base: int):
    final = {order: _reorder(pieces, base, order) for order, pieces in case.orders().items()}
    if case.bytes_agree:
        assert final["a-then-b"] == final["b-then-a"]


def _coalesced(pieces, where):
    row = coalesce_row(pieces)
    chunks = [_chunk(piece) for piece in pieces]
    if row is None:
        with pytest.raises(ReassemblyError):
            coalesce(chunks)
        return None
    merged = coalesce(chunks)
    runs, image = row
    assert [(c.c_sn - C_BASE, c.c_sn - C_BASE + c.length) for c in merged] == runs, where
    assert {
        (c.c_sn - C_BASE) * UNIT + i: value for c in merged for i, value in enumerate(c.payload)
    } == image, where
    ends = [any(p.st and p.units[1] == hi for p in pieces) for _, hi in runs]
    assert [(c.c_st, c.t_st, c.x_st) for c in merged] == [(st, st, st) for st in ends], where
    return merged


@pytest.mark.parametrize("case", CASES)
def test_coalesce(case: Case):
    final = {order: _coalesced(list(pieces), order) for order, pieces in case.orders().items()}
    assert final["a-then-b"] == final["b-then-a"]  # a pool has no arrival order


def widen(data: bytes) -> bytes:
    """One table unit as one 8-byte IP fragment unit: its bytes twice."""
    assert FRAG_UNIT == 2 * UNIT
    return b"".join(data[i : i + UNIT] * 2 for i in range(0, len(data), UNIT))


def narrow(data: bytes) -> bytes:
    """The inverse of :func:`widen`."""
    return b"".join(data[i : i + UNIT] for i in range(0, len(data), FRAG_UNIT))


def _ip_reassembled(pieces, where):
    reassembler = IpReassembler(capacity_bytes=1 << 20)
    out = [
        reassembler.add_fragment(IpFragment(T_ID, p.units[0], not p.st, widen(p.payload)))
        for p in pieces
    ]
    done, held = last_wins(pieces)
    assert [narrow(d) for d in out if d] == [
        bytes(image[o] for o in sorted(image)) for image in done
    ], where
    assert reassembler.buffered_bytes == 2 * len(held), where
    assert reassembler.partial_count == bool(held), where


@pytest.mark.parametrize("case", CASES)
def test_ip_reassembler(case: Case):
    for order, pieces in case.orders().items():
        _ip_reassembled(list(pieces), order)


# ----------------------------------------------------------------------
# Triples: every arrival permutation

CUTS = (0, 3, 5, 8)
RANGES = [(lo, hi) for i, lo in enumerate(CUTS) for hi in CUTS[i + 1 :]]


def replay(pieces) -> tuple[list[tuple[str, int]], dict[int, int]]:
    """THE model for any number of arrivals: a byte image.  A piece that
    disagrees with it is a conflict and writes nothing; otherwise it is
    placed with as many fresh bytes as the image lacked (none: duplicate)."""
    image: dict[int, int] = {}
    verdicts = []
    for piece in pieces:
        own = _image([piece])
        if any(image.get(offset, value) != value for offset, value in own.items()):
            verdicts.append(("conflict", 0))
            continue
        fresh = len(own.keys() - image.keys())
        verdicts.append(("placed" if fresh else "duplicate", fresh))
        image.update(own)
    return verdicts, image


def test_the_model_is_the_table_on_pairs():
    for case in (param.values[0] for param in CASES):
        for first, second in case.orders().values():
            kind, fresh = case.expect(first, second)
            assert replay([first, second])[0][1] == (
                kind, sum(hi - lo for lo, hi in fresh) * UNIT
            ), case


@dataclass(frozen=True)
class Triple:
    ranges: tuple[Range, Range, Range]
    differs: bool  # the third range disagrees on its first byte shared with another
    st: bool

    @property
    def end(self) -> int:
        return max(hi for _, hi in self.ranges)

    def whole(self, accepted: list[Piece]) -> bool:
        """The ST-marked end arrived and every byte below it is held."""
        return self.st and len(_image(accepted)) == self.end * UNIT

    def pieces(self) -> list[Piece]:
        end = self.end
        payloads = [bytearray(TRUTH[lo * UNIT : hi * UNIT]) for lo, hi in self.ranges]
        if self.differs:
            payloads[2][(self._shared_unit() - self.ranges[2][0]) * UNIT + 1] ^= 0x5A
        return [
            Piece(units, bytes(payload), self.st and units[1] == end)
            for units, payload in zip(self.ranges, payloads)
        ]

    def _shared_unit(self) -> int | None:
        (lo, hi) = self.ranges[2]
        shared = [u for u in range(lo, hi) for a, b in self.ranges[:2] if a <= u < b]
        return min(shared, default=None)

    @property
    def applicable(self) -> bool:
        return not self.differs or self._shared_unit() is not None


TRIPLES = [
    pytest.param(
        [triple, replace(triple, st=False)],
        id="+".join(f"{lo}-{hi}" for lo, hi in ranges) + ("-differs" if differs else "-agree"),
    )
    for ranges in combinations_with_replacement(RANGES, 3)
    for differs in (False, True)
    if (triple := Triple(ranges, differs, st=True)).applicable
]


def _in_every_order(triples: list[Triple], drive):
    """Run *drive(triple, order, verdicts, accepted)* over the six arrival
    orders, with and without ST; the states it returns are one state
    whenever the bytes agree."""
    for triple in triples:
        states = []
        for order in permutations(triple.pieces()):
            verdicts, _ = replay(order)
            accepted = [p for p, (kind, _) in zip(order, verdicts) if kind != "conflict"]
            states.append(drive(triple, order, verdicts, accepted))
        assert triple.differs or all(state == states[0] for state in states), triple


@pytest.mark.parametrize("triples", TRIPLES)
def test_triples_placement_buffer(triples: list[Triple]):
    def drive(triple, order, verdicts, accepted):
        buffer = PlacementBuffer()
        for piece, (kind, fresh) in zip(order, verdicts):
            if kind == "conflict":
                with pytest.raises(InconsistentOverlapError):
                    _place(buffer, piece, C_BASE)
            else:
                assert _place(buffer, piece, C_BASE) == fresh, order
        _check_buffer(buffer, accepted, C_BASE, order)
        return buffer.contents(), buffer.bytes_placed, buffer.duplicate_bytes, buffer.total_bytes

    _in_every_order(triples, drive)


@pytest.mark.parametrize("triples", TRIPLES)
def test_triples_frame_store(triples: list[Triple]):
    def drive(triple, order, verdicts, accepted):
        store = FrameStore(PlacementBuffer())
        done = 0
        for piece, (kind, _) in zip(order, verdicts):
            if kind == "conflict":
                with pytest.raises(InconsistentOverlapError):
                    _place_frame(store, piece)
            else:
                done += _place_frame(store, piece)
        _check_frame(store, accepted, order)
        whole = triple.whole(accepted)
        assert done == whole and store.completed == [X_ID] * whole, order
        return store.contents(X_ID), store.frame(X_ID), store.stream.bytes_placed

    _in_every_order(triples, drive)


@pytest.mark.parametrize("triples", TRIPLES)
def test_triples_live_receiver(triples: list[Triple]):
    def drive(triple, order, verdicts, accepted):
        receiver = ChunkTransportReceiver()
        events = receiver.receive_chunks([_chunk(piece) for piece in order])
        kinds = [kind for kind, _ in verdicts]
        assert receiver.duplicate_chunks == kinds.count("duplicate"), order
        assert receiver.overlap_conflict_chunks == kinds.count("conflict"), order
        assert receiver.rejected_placements == receiver.budget_refused_chunks == 0, order
        _check_buffer(receiver.stream, accepted, C_BASE, order)
        _check_frame(receiver.frames, accepted, order)
        assert events.completed_frames == [X_ID] * triple.whole(accepted), order
        assert receiver.closed == any(p.st for p in accepted), order
        assert events.verdicts == [] and receiver.pending_tpdus() == [(C_ID, T_ID)], order
        return (
            receiver.stream_bytes(), receiver.stream.bytes_placed, receiver.stream.total_bytes,
            receiver.frames.frame(X_ID), receiver.closed,
        )

    _in_every_order(triples, drive)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("triples", TRIPLES)
def test_triples_reorder_receiver(triples: list[Triple], base: int):
    _in_every_order(triples, lambda triple, order, *_: _reorder(order, base, order))


@pytest.mark.parametrize("triples", TRIPLES)
def test_triples_coalesce(triples: list[Triple]):
    for triple in triples:
        final = [_coalesced(list(order), order) for order in permutations(triple.pieces())]
        assert all(state == final[0] for state in final), triple


@pytest.mark.parametrize("triples", TRIPLES)
def test_triples_ip_reassembler(triples: list[Triple]):
    for triple in triples:
        for order in permutations(triple.pieces()):
            _ip_reassembled(list(order), order)


# ----------------------------------------------------------------------
# The verdict that depends on order: a displacement contradiction


def test_displacement_contradiction_is_the_later_arrivals_conflict():
    """Two chunks of one frame whose (C.SN - X.SN) differ cannot both be
    right, and nothing in either says which is.  THE verdict: the frame
    lies where its first chunk put it and the later arrival is a
    *conflict* — counted, journeyed with ``site="frame"``, never shown
    to the verifier.  So the outcome depends on arrival order, on
    purpose: the stream placed both (its labels were clean and its
    placement comes first), the frame and the TPDU know only the first.
    A forged first chunk therefore denies the honest ones (visibly:
    conflicts, no verdict, the sender gives up); it cannot make a frame
    complete over bytes from two places."""
    here = make_chunk(units=4, c_id=C_ID, c_sn=C_BASE, t_id=T_ID, t_sn=0, x_id=X_ID, x_sn=0, seed=1)
    elsewhere = make_chunk(
        units=4, c_id=C_ID, c_sn=C_BASE + 40, t_id=T_ID, t_sn=4, x_id=X_ID, x_sn=4, x_st=True,
        seed=2,
    )
    bases = {}
    for first, second in permutations([here, elsewhere]):
        receiver = ChunkTransportReceiver()
        events = receiver.receive_chunks([first, second])
        assert receiver.overlap_conflict_chunks == 1
        assert receiver.rejected_placements == receiver.duplicate_chunks == 0
        assert receiver.stream.bytes_placed == 8 * UNIT        # the stream took both
        window = receiver.frames.frame(X_ID)
        bases[first.c.sn] = window.base
        # The frame learned from the first arrival alone ...
        assert window.base == (first.c.sn - first.x.sn) * UNIT
        assert window.placed_to == (first.x.sn + 4) * UNIT
        assert window.total_bytes == (8 * UNIT if first.x.st else None)
        assert events.completed_frames == [] == receiver.frames.completed
        # ... and so did the verifier: shown both, it would have failed the
        # TPDU at once on its own (C.SN - X.SN) consistency check.
        assert events.verdicts == [] and receiver.pending_tpdus() == [(C_ID, T_ID)]
    assert bases == {C_BASE: FRAME_BASE, C_BASE + 40: FRAME_BASE + 36 * UNIT}
