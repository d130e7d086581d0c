"""Chunk reassembly — the Appendix D algorithm.

Two chunks merge into one when they agree on TYPE, SIZE and all three
IDs, and every SN of the second equals the corresponding SN of the first
plus the first's LEN (i.e. they are exactly adjacent at every framing
level).  The merged chunk takes the *second* chunk's ST bits, because the
second chunk carries the later data.

"Chunks can be efficiently reassembled in a single step, regardless of
how many times they've been fragmented" (Section 3.1): :func:`coalesce`
performs that single step over an arbitrary pool of chunks.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.chunk import Chunk
from repro.core.errors import ReassemblyError

__all__ = ["can_merge", "merge", "coalesce"]


def can_merge(chunk_a: Chunk, chunk_b: Chunk) -> bool:
    """Appendix D eligibility test: may *chunk_b* be appended to *chunk_a*?"""
    if chunk_a.type is not chunk_b.type or chunk_a.size != chunk_b.size:
        return False
    if chunk_a.is_control:
        # Control is never fragmented, so there is nothing to reassemble.
        return False
    units = chunk_a.length
    return (
        (chunk_b.c_id, chunk_b.t_id, chunk_b.x_id) == (chunk_a.c_id, chunk_a.t_id, chunk_a.x_id)
        and chunk_b.c_sn == chunk_a.c_sn + units
        and chunk_b.t_sn == chunk_a.t_sn + units
        and chunk_b.x_sn == chunk_a.x_sn + units
    )


def merge(chunk_a: Chunk, chunk_b: Chunk) -> Chunk:
    """Merge two adjacent chunks into one (Appendix D).

    Raises:
        ReassemblyError: if :func:`can_merge` is False.
    """
    if not can_merge(chunk_a, chunk_b):
        raise ReassemblyError(
            f"chunks are not adjacent at every level:\n"
            f"  a: {chunk_a.describe()}\n  b: {chunk_b.describe()}"
        )
    # TYPE, SIZE, IDs and SNs are chunk_a's own and the ST bits chunk_b's;
    # LEN is the sum of two lengths whose payloads are both in memory.
    return Chunk._make(
        chunk_a.type, chunk_a.size, chunk_a.length + chunk_b.length,
        chunk_a.c_id, chunk_a.c_sn, chunk_b.c_st,
        chunk_a.t_id, chunk_a.t_sn, chunk_b.t_st,
        chunk_a.x_id, chunk_a.x_sn, chunk_b.x_st,
        # The concatenation below IS the single reassembly touch the
        # paper's <=2.0 touches/byte budget pays for (CLAIM-1STEP
        # measures it); it is the one copy the receive path may make.
        chunk_a.payload + chunk_b.payload,  # protolint: ignore[hot-path-copy]
    )


def coalesce(chunks: Iterable[Chunk]) -> list[Chunk]:
    """Single-step reassembly over an arbitrary, arbitrarily ordered pool.

    Returns the maximally merged chunk list, ordered by (C.ID, C.SN) then
    (T.ID, T.SN).  Duplicate chunks (identical labels) are dropped — the
    paper's duplicate-rejection requirement (Section 3.3) at the chunk
    level.  Overlapping-but-not-identical chunks raise, because silent
    overlap means the sender violated the labelling contract.

    The cost of this step does not depend on how many in-network
    fragmentation stages produced the pool — the CLAIM-1STEP experiment
    measures exactly that property.
    """
    data: list[Chunk] = []
    control: list[Chunk] = []
    for chunk in chunks:
        (control if chunk.is_control else data).append(chunk)

    data.sort(key=lambda ch: (ch.c_id, ch.c_sn, ch.t_id, ch.t_sn))

    merged: list[Chunk] = []
    for chunk in data:
        if not merged:
            merged.append(chunk)
            continue
        last = merged[-1]
        if can_merge(last, chunk):
            merged[-1] = merge(last, chunk)
        elif _same_span(last, chunk) or _contained_in(chunk, last):
            continue  # exact duplicate or already-covered fragment
        elif _overlaps(last, chunk):
            raise ReassemblyError(
                f"overlapping chunks with mismatched labels:\n"
                f"  have: {last.describe()}\n  got:  {chunk.describe()}"
            )
        else:
            merged.append(chunk)
    return merged + control


def _span(chunk: Chunk) -> tuple[int, int]:
    """Connection-level [start, end) unit span of a data chunk."""
    return chunk.c_sn, chunk.c_sn + chunk.length


def _same_span(a: Chunk, b: Chunk) -> bool:
    return a.c_id == b.c_id and _span(a) == _span(b) and a.payload == b.payload


def _contained_in(inner: Chunk, outer: Chunk) -> bool:
    if inner.c_id != outer.c_id:
        return False
    i0, i1 = _span(inner)
    o0, o1 = _span(outer)
    if not (o0 <= i0 and i1 <= o1):
        return False
    offset = (i0 - o0) * outer.unit_bytes
    # memoryview slice: zero-copy containment check (touch-once budget).
    return memoryview(outer.payload)[offset : offset + inner.payload_bytes] == inner.payload


def _overlaps(a: Chunk, b: Chunk) -> bool:
    if a.c_id != b.c_id:
        return False
    a0, a1 = _span(a)
    b0, b1 = _span(b)
    return a0 < b1 and b0 < a1
