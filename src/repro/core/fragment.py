"""Chunk fragmentation — the Appendix C algorithm.

"If a chunk is longer than a packet, it can be split into smaller chunks
that fit into packets...  Each fragmented chunk has the same TYPE, SIZE
and ID fields as the original chunk.  The LEN and SN fields are adjusted
appropriately to reflect the contents of the new chunk.  Only the chunk
that contains the last data of the original chunk has its ST bits set to
the values of the ST bits in the original chunk."

The split never divides an atomic data unit: "The SIZE field assures that
the atomic units of protocol data processing are not split."  Control
chunks are indivisible and raise :class:`FragmentationError`.
"""

from __future__ import annotations

from repro.core.chunk import Chunk
from repro.core.errors import FragmentationError
from repro.core.types import HEADER_BYTES, SN_LIMIT, WORD_BYTES, ChunkType

__all__ = ["split", "split_to_unit_limit", "fragment_for_mtu"]


def split(chunk: Chunk, new_len: int) -> tuple[Chunk, Chunk]:
    """Split *chunk* into ``(chunk_a, chunk_b)`` after *new_len* units.

    This is the Appendix C algorithm verbatim: ``chunk_a`` carries the
    first *new_len* atomic units with all ST bits cleared; ``chunk_b``
    carries the remainder with every SN advanced by *new_len* and the
    original ST bits preserved.

    Raises:
        FragmentationError: if the chunk is control (indivisible), has
            only one unit, *new_len* does not leave both halves
            non-empty, or an SN of ``chunk_b`` would leave its field.
    """
    ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
    if ctype is not ChunkType.DATA:
        raise FragmentationError(f"control chunk (TYPE={ctype.name}) is indivisible")
    if length <= 1:
        raise FragmentationError("cannot split a single-unit chunk")
    if not 0 < new_len < length:
        raise FragmentationError(f"new_len must be in 1..{length - 1}, got {new_len}")
    _refuse_sn_overflow(chunk, new_len)
    # Both halves are made of a valid label's own integers, 0 < LEN < the
    # parent's and no SN past its field: nothing is left to validate.
    cut = new_len * size * WORD_BYTES
    chunk_a = Chunk._make(
        ctype, size, new_len, c_id, c_sn, False, t_id, t_sn, False, x_id, x_sn, False,
        payload[:cut],
    )
    chunk_b = Chunk._make(
        ctype, size, length - new_len,
        c_id, c_sn + new_len, c_st, t_id, t_sn + new_len, t_st, x_id, x_sn + new_len, x_st,
        payload[cut:],
    )
    return chunk_a, chunk_b


def _refuse_sn_overflow(chunk: Chunk, advance: int) -> None:
    if max(chunk.c_sn, chunk.t_sn, chunk.x_sn) + advance >= SN_LIMIT:
        raise FragmentationError(
            f"a fragment {advance} units into {chunk.describe()} would carry an SN past 2^64-1"
        )


def split_to_unit_limit(chunk: Chunk, max_units: int) -> list[Chunk]:
    """Split *chunk* into pieces of at most *max_units* atomic units.

    Appendix C notes the two-way split "can be repeated until each chunk
    carries only a single unit of data"; this is that repetition done in
    one pass — every piece cut once from the original payload, equal to
    what repeated :func:`split` returns.  Control chunks pass through
    unsplit if they fit, otherwise raise.
    """
    if max_units < 1:
        raise FragmentationError(f"max_units must be >= 1, got {max_units}")
    ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
    if length <= max_units:
        return [chunk]
    if ctype is not ChunkType.DATA:
        raise FragmentationError(
            f"control chunk of {length} words exceeds limit {max_units} "
            "and control information is indivisible"
        )
    last = (length - 1) // max_units * max_units
    _refuse_sn_overflow(chunk, last)
    unit_bytes = size * WORD_BYTES
    pieces = [
        Chunk._make(
            ctype, size, max_units,
            c_id, c_sn + done, False, t_id, t_sn + done, False, x_id, x_sn + done, False,
            payload[done * unit_bytes : (done + max_units) * unit_bytes],
        )
        for done in range(0, last, max_units)
    ]
    pieces.append(
        Chunk._make(
            ctype, size, length - last,
            c_id, c_sn + last, c_st, t_id, t_sn + last, t_st, x_id, x_sn + last, x_st,
            payload[last * unit_bytes :],
        )
    )
    return pieces


def fragment_for_mtu(chunk: Chunk, mtu: int, packet_overhead: int) -> list[Chunk]:
    """Split *chunk* so each piece fits a packet of *mtu* bytes.

    *packet_overhead* is the packet-envelope header size; each piece must
    satisfy ``packet_overhead + HEADER_BYTES + payload <= mtu``.  This is
    the "empty chunks from one size of envelope into another" operation
    of Section 3.1, for the case where the target envelope is smaller.

    Raises:
        FragmentationError: if even a single atomic unit cannot fit
            (the network's MTU is below the protocol's atomic unit), or
            if an indivisible control chunk does not fit.
    """
    budget = mtu - packet_overhead - HEADER_BYTES
    if chunk.payload_bytes <= budget:
        return [chunk]
    if chunk.is_control:
        raise FragmentationError(
            f"control chunk needs {chunk.payload_bytes} payload bytes but "
            f"MTU {mtu} leaves only {budget}"
        )
    max_units = budget // chunk.unit_bytes
    if max_units < 1:
        raise FragmentationError(
            f"MTU {mtu} cannot carry even one {chunk.unit_bytes}-byte "
            f"atomic unit plus headers"
        )
    return split_to_unit_limit(chunk, max_units)
