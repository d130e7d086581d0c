"""Inconsistent-overlap detection at the placement and receiver layers.

The NIDS-gap attack works because TCP reassemblers silently *resolve*
content disagreements (first-wins or last-wins, OS-dependent).  The
placement buffer must instead detect the disagreement: consistent
re-writes (retransmissions) merge silently, inconsistent ones raise and
leave the buffer untouched, and the transport receiver refuses the
chunk without ever acknowledging it.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InconsistentOverlapError
from repro.host.delivery import FrameStore, PlacementBuffer
from repro.transport.receiver import ChunkTransportReceiver
from tests.helpers import make_chunk, make_payload, place_frame


@st.composite
def overlapping_writes(draw):
    """A base write plus a second write overlapping it somewhere."""
    base_offset = draw(st.integers(min_value=0, max_value=64))
    base = draw(st.binary(min_size=1, max_size=128))
    base_end = base_offset + len(base)
    second_offset = draw(
        st.integers(min_value=max(base_offset - 32, 0), max_value=base_end - 1)
    )
    min_len = base_offset - second_offset + 1 if second_offset < base_offset else 1
    second_len = draw(st.integers(min_value=max(min_len, 1), max_value=160))
    return base_offset, base, second_offset, second_len


@given(overlapping_writes())
def test_consistent_overlap_merges_silently(layout):
    base_offset, base, second_offset, second_len = layout
    buffer = PlacementBuffer(limit_bytes=None)
    buffer.place(base_offset, base)

    # Second write that agrees with the buffer everywhere it overlaps.
    second = bytearray(second_len)
    for i in range(second_len):
        pos = second_offset + i
        if base_offset <= pos < base_offset + len(base):
            second[i] = base[pos - base_offset]
        else:
            second[i] = 0x5C
    fresh = buffer.place(second_offset, bytes(second))
    assert fresh == second_len - min(
        base_offset + len(base), second_offset + second_len
    ) + max(base_offset, second_offset)
    assert buffer.overlap_conflicts == 0


@given(overlapping_writes(), st.integers(min_value=0, max_value=10_000))
def test_inconsistent_overlap_raises_and_writes_nothing(layout, flip_seed):
    base_offset, base, second_offset, second_len = layout
    buffer = PlacementBuffer(limit_bytes=None)
    buffer.place(base_offset, base)
    placed_before = buffer.bytes_placed
    contents_before = buffer.contents()

    # Disagree on exactly one overlapping byte.
    lo = max(base_offset, second_offset)
    hi = min(base_offset + len(base), second_offset + second_len)
    flip_at = lo + flip_seed % (hi - lo)
    second = bytearray(second_len)
    for i in range(second_len):
        pos = second_offset + i
        if base_offset <= pos < base_offset + len(base):
            second[i] = base[pos - base_offset]
    second[flip_at - second_offset] ^= 0xFF

    with pytest.raises(InconsistentOverlapError):
        buffer.place(second_offset, bytes(second))
    assert buffer.overlap_conflicts == 1
    # Detection, not resolution: the buffer is exactly as it was.
    assert buffer.bytes_placed == placed_before
    assert buffer.contents() == contents_before


def test_conflict_beyond_placed_region_is_checked_only_where_placed():
    buffer = PlacementBuffer(limit_bytes=None)
    buffer.place(0, b"abcd")
    # Overlaps [0, 4) consistently, extends beyond with new bytes: fine.
    assert buffer.place(2, b"cdXY") == 2
    # Now disagree within the just-extended region.
    with pytest.raises(InconsistentOverlapError):
        buffer.place(4, b"ZZ")


def test_disjoint_writes_never_conflict():
    buffer = PlacementBuffer(limit_bytes=None)
    assert buffer.place(0, b"aaaa") == 4
    assert buffer.place(8, b"bbbb") == 4
    assert buffer.place(4, b"cccc") == 4  # fills the gap, touches nothing
    assert buffer.overlap_conflicts == 0


def test_frame_store_detects_per_frame_conflicts():
    store = FrameStore(PlacementBuffer())
    place_frame(store, 1, 0, b"hello world!")
    # Same frame bytes, different content: the stream, which holds the
    # frame's bytes, refuses them before the frame hears of the chunk...
    with pytest.raises(InconsistentOverlapError, match="disagrees"):
        place_frame(store, 1, 6, b"FORGED")
    # ...and the same frame range sent to a clean part of the stream is
    # the frame's own conflict: it does not lie there.
    with pytest.raises(InconsistentOverlapError, match="begins at stream offset"):
        place_frame(store, 1, 6, b"FORGED", base=100)
    assert store.contents(1) == b"hello world!"
    # Other frames are other windows: same offset, different frame.
    assert place_frame(store, 2, 6, b"FORGED") is False


# ----------------------------------------------------------------------
# Receiver semantics: refuse, count, never acknowledge
# ----------------------------------------------------------------------


def test_receiver_refuses_forged_chunk_and_never_verifies_it():
    receiver = ChunkTransportReceiver()
    genuine = make_chunk(units=8, seed=1)
    events = receiver.receive_chunk(genuine)
    assert events.verdicts == []

    forged = make_chunk(units=8, seed=2)  # same labels, different bytes
    assert forged.payload != genuine.payload
    events = receiver.receive_chunk(forged)
    assert receiver.overlap_conflict_chunks == 1
    assert events.verdicts == []  # refused before the verifier saw it
    assert events.completed_frames == []

    # The genuine stream is untouched and retransmissions still merge.
    assert receiver.stream.contents()[: len(genuine.payload)] == genuine.payload
    events = receiver.receive_chunk(genuine)
    assert receiver.duplicate_chunks == 1
    assert receiver.overlap_conflict_chunks == 1


def test_receiver_counts_conflicts_separately_from_rejections():
    receiver = ChunkTransportReceiver()
    receiver.receive_chunk(make_chunk(units=4, seed=1))
    receiver.receive_chunk(make_chunk(units=4, seed=9))
    assert receiver.overlap_conflict_chunks == 1
    assert receiver.rejected_placements == 0
    assert receiver.budget_refused_chunks == 0


def test_x_level_conflict_is_refused_too():
    receiver = ChunkTransportReceiver()
    # Same X frame range, different bytes, but *different* C ranges so
    # the stream-level placement is clean — only the per-frame store
    # can catch this one.
    a = make_chunk(units=4, c_sn=0, x_id=5, x_sn=0, seed=1)
    b = make_chunk(units=4, c_sn=100, x_id=5, x_sn=0, seed=2)
    receiver.receive_chunk(a)
    receiver.receive_chunk(b)
    assert receiver.overlap_conflict_chunks == 1


@given(units=st.integers(min_value=1, max_value=32), seed=st.integers(0, 999))
def test_identical_retransmission_is_never_a_conflict(units, seed):
    receiver = ChunkTransportReceiver()
    chunk = make_chunk(units=units, seed=seed)
    receiver.receive_chunk(chunk)
    receiver.receive_chunk(chunk)
    assert receiver.overlap_conflict_chunks == 0
    assert receiver.duplicate_chunks == 1
    assert receiver.stream.contents()[: len(chunk.payload)] == chunk.payload


def test_partial_overlap_conflict_reports_offset_range():
    buffer = PlacementBuffer(limit_bytes=None)
    buffer.place(0, make_payload(4))
    with pytest.raises(InconsistentOverlapError, match=r"\[8, 16\)"):
        buffer.place(8, b"\xff" * 8)
