"""The overlap verdict table's sampled tier: whole transfers, reordered.

``test_overlap_verdicts.py`` is exhaustive over pairs and triples of
hand-cut ranges.  Here hypothesis draws whole transfers from a
``ChunkTransportSender`` — several frames and TPDUs cut into small
chunks — and retransmits some TPDUs, either as sent (duplicates) or
re-cut at other unit boundaries so that the copies straddle the
originals, each copy entering the wire among its TPDU's own pieces.
The wire is then released in the orders the reordering literature
measures (Istrate; Wu et al., PAPERS.md): ``AlmostSortedReorder``
(bounded local displacement, *k* frame times at most) or
``InterruptCoalescingReorder`` (batch-inverted windows), ties broken by
send order as the event loop breaks them.

An honest sender's copies agree, so ``replay``'s byte image is the
sender's stream, and every column must end in it or in its named row:

- the placement buffer, virtual reassembly at the T and X levels, the
  live receiver, ``ReassembleReceiver`` and ``ReorderReceiver``: the
  stream, each byte placed, delivered and ledgered once;
- ``coalesce``: the chunks as sent before the cut, unless a straddling
  copy overlaps the run before it without lying inside it, when it
  raises (``coalesce_row``, per TPDU-and-frame run);
- ``IpReassembler``, one datagram per TPDU: ``last_wins``, so a
  retransmission that arrives after its TPDU completed may complete it
  a second time.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ReassemblyError
from repro.core.fragment import split, split_to_unit_limit
from repro.core.reassemble import coalesce
from repro.core.virtual import VirtualReassembler
from repro.host.delivery import PlacementBuffer
from repro.netsim.adversary import AlmostSortedReorder, InterruptCoalescingReorder
from repro.paper.ipfrag import IpFragment, IpReassembler
from repro.paper.receiver import ReassembleReceiver, ReorderReceiver
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.helpers import deterministic_bytes
from tests.properties.test_overlap_verdicts import (
    UNIT,
    Piece,
    coalesce_row,
    last_wins,
    narrow,
    replay,
    widen,
)

C_ID = 3
FRAME_TIME = 1e-4  # nominal spacing of wire entries


def _recut(chunk, limit: int, first: int):
    """*chunk* cut at other unit boundaries: *first* units, then *limit*."""
    if 0 < first < chunk.length:
        head, chunk = split(chunk, first)
        return [head] + split_to_unit_limit(chunk, limit)
    return split_to_unit_limit(chunk, limit)


@st.composite
def transfers(draw):
    """(sent DATA chunks, stream bytes, TPDU bytes by T.ID, arrival order)."""
    sender = ChunkTransportSender(
        ConnectionConfig(connection_id=C_ID, tpdu_units=draw(st.integers(2, 12)))
    )
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    sent = []
    for frame_id, units in enumerate(sizes):
        payload = deterministic_bytes(units * UNIT, seed=frame_id)
        last = frame_id == len(sizes) - 1
        sent += sender.send_frame(payload, frame_id=frame_id, end_of_connection=last)
    cut = draw(st.integers(1, 4))
    wire = [p for c in sent for p in (split_to_unit_limit(c, cut) if c.is_data else [c])]
    t_ids = sorted({c.t_id for c in sent if c.is_data})
    for t_id in draw(st.lists(st.sampled_from(t_ids), min_size=1, max_size=3)):
        if draw(st.booleans()):  # a duplicate of what was sent
            copy = [p for p in wire if p.t_id == t_id]
        else:  # the same bytes, straddling the original cut
            limit, first = draw(st.integers(1, 8)), draw(st.integers(0, 5))
            copy = [
                p for c in sender.retransmit(t_id)
                for p in (_recut(c, limit, first) if c.is_data else [c])
            ]
        # Each copy among the TPDU's own pieces, so the two interleave.
        span = [i for i, p in enumerate(wire) if p.t_id == t_id]
        at = st.integers(span[0], span[-1] + 1)
        slots = draw(st.lists(at, min_size=len(copy), max_size=len(copy)))
        for slot, piece in sorted(zip(slots, copy), key=lambda pair: pair[0], reverse=True):
            wire.insert(slot, piece)
    if draw(st.booleans()):
        k = draw(st.integers(1, 8))
        policy = AlmostSortedReorder(
            displacement_rate=draw(st.sampled_from([0.1, 0.3, 0.6])),
            max_skew=k * FRAME_TIME,
            rng=draw(st.randoms(use_true_random=False)),
        )
    else:
        policy = InterruptCoalescingReorder(window=draw(st.integers(2, 12)) * FRAME_TIME)
    release = [policy.release_time(i * FRAME_TIME, i * FRAME_TIME) for i in range(len(wire))]
    order = [wire[i] for i in sorted(range(len(wire)), key=lambda i: (release[i], i))]
    data = [c for c in sent if c.is_data]
    tpdus: dict[int, bytes] = {}
    for c in data:
        tpdus[c.t_id] = tpdus.get(c.t_id, b"") + c.payload
    return data, b"".join(c.payload for c in data), tpdus, order


def _pieces(chunks, level: str = "c"):
    """The DATA chunks as the table's pieces, in units of one level's SN."""
    labelled = ((c, c.tuple_for(level)) for c in chunks if c.is_data)
    return [Piece((label.sn, label.sn + c.length), c.payload, label.st) for c, label in labelled]


@given(transfers())
def test_every_column_ends_in_the_byte_image(transfer):
    sent, stream, tpdus, order = transfer
    data = [c for c in order if c.is_data]
    verdicts, image = replay(_pieces(data))
    assert bytes(image[i] for i in range(len(image))) == stream
    assert all(kind != "conflict" for kind, _ in verdicts)

    buffer = PlacementBuffer()
    for chunk, (_, fresh) in zip(data, verdicts):
        place = buffer.place_last if chunk.c_st else buffer.place
        assert place(chunk.c_sn * UNIT, chunk.payload) == fresh
    assert buffer.contents() == stream and buffer.is_complete()

    for level, ids in (("t", set(tpdus)), ("x", {c.x_id for c in sent})):
        tracker = VirtualReassembler(level=level)
        completed = [c.tuple_for(level).ident for c in data if tracker.record(c).completed]
        assert sorted(completed) == sorted(ids), level

    receiver = ChunkTransportReceiver()
    events = receiver.receive_chunks(order)
    assert receiver.stream_bytes() == stream and receiver.closed
    assert receiver.duplicate_chunks == sum(kind == "duplicate" for kind, _ in verdicts)
    assert receiver.overlap_conflict_chunks == receiver.rejected_placements == 0
    assert receiver.verified_tpdus() == len(tpdus) and receiver.corrupted_tpdus() == 0
    assert receiver.pending_tpdus() == []
    assert sorted(events.completed_frames) == sorted({c.x_id for c in sent})

    for strategy in (ReassembleReceiver, ReorderReceiver):
        host = strategy()
        for time, chunk in enumerate(order):
            host.on_chunk(float(time), chunk)
        assert host.buffered_bytes == 0, strategy  # nothing is left for finish
        host.finish(float(len(order)))
        assert host.app.contents() == stream and host.delivered_bytes == len(stream), strategy
        # Each byte crosses in once; a buffered one crosses out once more.
        touches = host.ledger.touches
        buffered = touches.get("nic-to-buffer", 0)
        assert touches.get("nic-to-app", 0) + buffered == len(stream), strategy
        assert touches.get("buffer-to-app", 0) == buffered, strategy
        if strategy is ReorderReceiver:
            offsets = [e.offset for e in host.events]
            assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)


@given(transfers())
def test_coalesce_restores_what_was_sent_or_raises_by_its_row(transfer):
    sent, _, _, order = transfer
    runs: dict[tuple[int, int], list] = {}
    for chunk in order:
        if chunk.is_data:
            runs.setdefault((chunk.t_id, chunk.x_id), []).append(chunk)
    if any(coalesce_row(_pieces(chunks)) is None for chunks in runs.values()):
        try:
            coalesce(order)
        except ReassemblyError:
            return
        raise AssertionError("a straddling copy was merged")
    assert [c for c in coalesce(order) if c.is_data] == sent


@given(transfers())
def test_ip_reassembler_follows_last_wins_per_tpdu(transfer):
    _, _, tpdus, order = transfer
    reassembler = IpReassembler(capacity_bytes=1 << 20)
    completed: dict[int, list[bytes]] = {}
    for chunk in order:
        if chunk.is_data:
            fragment = IpFragment(chunk.t_id, chunk.t_sn, not chunk.t_st, widen(chunk.payload))
            payload = reassembler.add_fragment(fragment)
            if payload is not None:
                completed.setdefault(chunk.t_id, []).append(narrow(payload))
    held = 0
    for t_id, tpdu in tpdus.items():
        done, leftover = last_wins(_pieces([c for c in order if c.t_id == t_id], "t"))
        assert completed.get(t_id, []) == [tpdu] * len(done) and done, t_id
        held += len(leftover)
    assert reassembler.buffered_bytes == 2 * held
