"""Shared deterministic data builders for the test suite.

Every generator here is a pure function of its arguments: the same
call always yields the same bytes, on any machine, so failures replay
exactly.  Import from here instead of redefining per-module
``_payload`` helpers (this module deduplicated three identical copies).
"""

from __future__ import annotations

import random

from repro.core.chunk import Chunk
from repro.core.tuples import FramingTuple
from repro.core.types import WORD_BYTES, ChunkType
from repro.host.delivery import FrameStore

__all__ = ["deterministic_bytes", "make_payload", "make_chunk", "place_frame"]

#: :func:`place_frame` lays frame *n* out from stream byte ``n * FRAME_SPACING``.
FRAME_SPACING = 4096


def deterministic_bytes(n: int, seed: int = 0) -> bytes:
    """*n* pseudo-random bytes, a pure function of *seed*.

    Seeds are streams: ``deterministic_bytes(100, s)`` is a prefix of
    ``deterministic_bytes(1000, s)``.
    """
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def make_payload(units: int, size: int = 1, seed: int = 1) -> bytes:
    """Deterministic payload of *units* atomic units of *size* words."""
    return deterministic_bytes(units * size * WORD_BYTES, seed)


def make_chunk(
    units: int = 8,
    size: int = 1,
    c_id: int = 1,
    c_sn: int = 0,
    c_st: bool = False,
    t_id: int = 10,
    t_sn: int = 0,
    t_st: bool = False,
    x_id: int = 100,
    x_sn: int = 0,
    x_st: bool = False,
    seed: int = 1,
    payload: bytes | None = None,
) -> Chunk:
    """A DATA chunk with sensible defaults for tests."""
    return Chunk(
        type=ChunkType.DATA,
        size=size,
        length=units,
        c=FramingTuple(c_id, c_sn, c_st),
        t=FramingTuple(t_id, t_sn, t_st),
        x=FramingTuple(x_id, x_sn, x_st),
        payload=payload if payload is not None else make_payload(units, size, seed),
    )


def place_frame(
    store: FrameStore,
    frame_id: int,
    offset: int,
    data: bytes,
    last: bool = False,
    *,
    base: int | None = None,
) -> bool:
    """Drive *store* the way the receiver does: one placement, in the
    stream, then the frame's bookkeeping for the bytes it took.

    The frame's first byte lies at stream offset *base* (by default
    ``frame_id * FRAME_SPACING``, so test frames never share bytes).
    """
    at = (frame_id * FRAME_SPACING if base is None else base) + offset
    store.stream.place(at, data)
    return store.place(frame_id, offset, at, len(data), last=last)
