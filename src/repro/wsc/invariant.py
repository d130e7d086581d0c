"""The TPDU invariant under chunk fragmentation (Figures 5 and 6).

"For the fields that are covered by the error detection code, we perform
error detection on an invariant of the TPDU under chunk fragmentation.
The invariant is simply a way of assuring that the transmitter and
receiver perform error detection on the same chunk fields in the same
way regardless of network fragmentation."

Position map in the WSC-2 code space (32-bit symbols):

    0 .. 16383            TPDU data symbols (data unit t_sn occupies
                          positions t_sn*SIZE .. t_sn*SIZE+SIZE-1)
    16384                 T.ID
    16385                 C.ID
    16386                 C.ST value (1 if set within this TPDU)
    16387 + 2*t_sn        X.ID     } encoded for the data element whose
    16388 + 2*t_sn        X.ST val } X.ST or T.ST bit is set (Figure 6)

Every input that decides a position or a trigger — T.SN, SIZE, the ST
bits — is itself checked by virtual reassembly or by the code mismatch
that a wrong position causes, which is exactly the Table 1 story.

The map is the definition (``add_symbol`` / ``add_run`` there); the code
spends no arithmetic on a position known in advance — fixed weights are
constants, multiplied through byte tables (``gf_mul_const``), the X pair's
are cached by final T.SN — and none on a payload run's either:
``add_bytes`` applies it as a shift (data ends below 16384).  C.ID's row
is T.ID's times alpha, so the two IDs are one table product per TPDU:
``w_T * t_id + w_T * alpha * c_id = w_T * (t_id + alpha * c_id)``.  An
X.ID of 0 adds 0 to both parities and is skipped; the rest are one table
product by the X.ID weight of their final T.SN, whose four byte tables
(4 KiB) are built once per final T.SN and cached with X.ST's weight.  The
bit-serial ``gf_mul`` ran once per bit of the X.ID, and X.IDs are frame
numbers: 1.7–2.9 µs a pair on ``small_frames``, 0.4–0.5 µs by table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.core.chunk import Chunk
from repro.core.errors import ChunkError, ErrorDetectionMismatch
from repro.core.types import MAX_TPDU_SYMBOLS, ChunkType
from repro.obs import Counter, declare
from repro.obs import runtime as obs_runtime
from repro.wsc.gf32 import POLY, alpha_pow, gf_mul_const, mul_alpha
from repro.wsc.wsc2 import Wsc2Accumulator

__all__ = [
    "T_ID_POS",
    "C_ID_POS",
    "C_ST_POS",
    "X_PAIR_BASE",
    "TpduInvariant",
    "EdPayload",
    "build_ed_chunk",
    "parse_ed_chunk",
    "encode_tpdu",
    "decode_tpdu",
]

T_ID_POS = MAX_TPDU_SYMBOLS          # 16384
C_ID_POS = MAX_TPDU_SYMBOLS + 1      # 16385
C_ST_POS = MAX_TPDU_SYMBOLS + 2      # 16386
X_PAIR_BASE = MAX_TPDU_SYMBOLS + 3   # 16387
# alpha^position of the three fixed rows: constants too.
_T_ID_WEIGHT, _C_ST_WEIGHT = alpha_pow(T_ID_POS), alpha_pow(C_ST_POS)
_times_t_id_weight = gf_mul_const(_T_ID_WEIGHT)

_ED_PAYLOAD = struct.Struct(">III")
# An enum member read is ~0.1 µs on CPython 3.11.
_DATA, _ED = ChunkType.DATA, ChunkType.ERROR_DETECTION

_DECODE_OK = declare(Counter, "wsc", "decode_ok", "whole-TPDU decodes that verified")
_DECODE_FAIL_REASSEMBLY = declare(
    Counter, "wsc", "decode_fail.reassembly-error", "whole-TPDU decodes failing reassembly"
)
_DECODE_FAIL_CODE = declare(
    Counter, "wsc", "decode_fail.code-mismatch", "whole-TPDU decodes with parity mismatch"
)


def _decoded(outcome: tuple[str, str]) -> None:
    """Count one :func:`decode_tpdu` outcome: a function keeps no integer
    to publish, so it writes at the site, like a gauge."""
    registry = obs_runtime._registry
    if registry is not None:
        registry.instruments[outcome].inc()


@lru_cache(maxsize=1024)
def _x_pair_weight(final_t_sn: int) -> tuple[Callable[[int], int], int]:
    """The X pair keyed to *final_t_sn*: the multiply by X.ID's weight
    (alpha^position, as byte tables) and X.ST's weight (the next position)."""
    weight = alpha_pow(X_PAIR_BASE + 2 * final_t_sn)
    return gf_mul_const(weight), mul_alpha(weight)


class TpduInvariant(Wsc2Accumulator):
    """Incremental WSC-2 accumulator over one TPDU's invariant.

    Both sender and receiver run the identical object.  The sender feeds
    it the TPDU's chunks before transmission; the receiver feeds it
    chunks (or the fresh sub-ranges of partially duplicate chunks) in
    whatever order the network delivers them.  Equality of the final
    (P0, P1) pair is the fragmentation-invariant end-to-end check.

    A symbol at a position whose weight is known is ``p0 ^= v`` and
    ``p1 ^= gf_mul(weight, v)``; the ST values are 1, so they add the
    weight itself.
    """

    __slots__ = ("c_id", "t_id")

    def __init__(self, c_id: int, t_id: int) -> None:
        self.c_id, self.t_id = c_id, t_id
        # T.ID and C.ID are constant for all chunks of a TPDU and are
        # encoded exactly once, at fixed positions (Figure 5).
        self.p0, self.p1 = _id_parities(c_id, t_id)

    def add_chunk(self, chunk: Chunk) -> None:
        """Add a whole DATA chunk's contribution."""
        self.add_units(chunk, 0, chunk.length)

    def add_units(self, chunk: Chunk, first: int, last: int) -> None:
        """Add units ``[first, last)`` of *chunk* (chunk-relative).

        The one step per chunk of sender and receiver alike: the run is
        folded in, then the trigger rule — C.ST and the X pair belong to
        the chunk's final unit and are applied only when that unit is
        inside the range.  Receivers with duplicate partial overlap call
        this per fresh range so no symbol is ever accumulated twice.
        """
        ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
        if ctype is not _DATA:
            raise ChunkError("only DATA chunks contribute to the TPDU invariant")
        if not 0 <= first < last <= length:
            raise ChunkError(f"unit range [{first}, {last}) out of chunk bounds")
        end_symbol = (t_sn + last) * size
        if end_symbol > MAX_TPDU_SYMBOLS:
            raise ChunkError(
                f"TPDU data would occupy symbol {end_symbol - 1} "
                f">= limit {MAX_TPDU_SYMBOLS}"
            )
        if last - first == length:
            self.add_bytes(t_sn * size, payload)
        else:  # a fresh sub-range of a partial duplicate: a view, not a copy
            unit_bytes = chunk.unit_bytes
            fresh = memoryview(payload)[first * unit_bytes : last * unit_bytes]
            self.add_bytes((t_sn + first) * size, fresh)
            if last != length:
                return
        if c_st:
            # C.ST can be set at most once per TPDU.
            self.p0 ^= 1
            self.p1 ^= _C_ST_WEIGHT
        if x_st or t_st:
            # Figure 6: each X.ID encoded exactly once, keyed to the
            # boundary element's T.SN so no two pairs collide.  An X.ID of
            # 0 adds 0 to both parities.
            times_x_id_weight, x_st_weight = _x_pair_weight(t_sn + length - 1)
            if x_id:
                x_id &= 0xFFFFFFFF
                self.p0 ^= x_id
                self.p1 ^= times_x_id_weight(x_id)
            if x_st:
                self.p0 ^= 1
                self.p1 ^= x_st_weight


@dataclass(frozen=True, slots=True)
class EdPayload:
    """Contents of a TPDU's ERROR_DETECTION chunk: parities + unit count."""

    p0: int
    p1: int
    total_units: int

    def encode(self) -> bytes:
        return _ED_PAYLOAD.pack(self.p0, self.p1, self.total_units)

    @classmethod
    def decode(cls, payload: bytes) -> "EdPayload":
        if len(payload) != _ED_PAYLOAD.size:
            raise ChunkError(
                f"ED payload must be {_ED_PAYLOAD.size} bytes, got {len(payload)}"
            )
        p0, p1, total = _ED_PAYLOAD.unpack(payload)
        return cls(p0, p1, total)


# encode_tpdu sets a payload's slots directly, as TpduVerdict is made: a
# frozen dataclass's __init__ sets each field through object.__setattr__.
_SET_P0, _SET_P1, _SET_TOTAL_UNITS = (
    EdPayload.__dict__[name].__set__ for name in ("p0", "p1", "total_units")
)


def _id_parities(c_id: int, t_id: int) -> tuple[int, int]:
    """The (P0, P1) the T.ID and C.ID rows contribute: one table product."""
    t_id &= 0xFFFFFFFF
    c_id &= 0xFFFFFFFF
    # C_ID_POS is T_ID_POS + 1, so C.ID's weight is T.ID's times alpha, and
    # alpha * C.ID is mul_alpha's shift and conditional reduce, inline.
    alpha_c_id = c_id << 1
    if alpha_c_id > 0xFFFFFFFF:
        alpha_c_id ^= POLY
    return t_id ^ c_id, _times_t_id_weight(t_id ^ alpha_c_id)


def build_ed_chunk(c_id: int, t_id: int, payload: EdPayload) -> Chunk:
    """The TPDU's ERROR_DETECTION control chunk (library convention).

    Control chunks carry the IDs of the PDU they protect; SNs and the X
    tuple are zero, which is what makes the Appendix A ED-header elision
    transform exactly invertible.  Made without validation: the IDs are
    those of validated DATA chunks, every other field is a constant.
    """
    return Chunk._make(
        _ED, 1, 3, c_id, 0, False, t_id, 0, False, 0, 0, False, payload.encode()
    )


def parse_ed_chunk(chunk: Chunk) -> EdPayload:
    """Extract the parity payload from an ERROR_DETECTION chunk."""
    if chunk.type is not ChunkType.ERROR_DETECTION:
        raise ChunkError(f"not an ED chunk: TYPE={chunk.type.name}")
    return EdPayload.decode(chunk.payload)


def encode_tpdu(chunks: list[Chunk]) -> tuple[EdPayload, Chunk]:
    """Sender-side encoding of one complete TPDU.

    *chunks* are the TPDU's DATA chunks (any order, any fragmentation —
    the result is invariant).  Returns the parity payload and the ready
    ERROR_DETECTION chunk to transmit alongside the data.
    """
    if not chunks:
        raise ChunkError("a TPDU needs at least one DATA chunk")
    c_id = chunks[0].c_id
    t_id = chunks[0].t_id
    invariant = TpduInvariant(c_id, t_id)
    total_units = 0
    for chunk in chunks:
        if chunk.c_id != c_id or chunk.t_id != t_id:
            raise ChunkError("chunks span more than one (connection, TPDU)")
        length = chunk.length
        invariant.add_units(chunk, 0, length)
        if chunk.t_sn + length > total_units:
            total_units = chunk.t_sn + length
    p0, p1 = invariant.p0, invariant.p1
    # The ED chunk straight from the parities (build_ed_chunk's record).
    ed_chunk = Chunk._make(
        _ED, 1, 3, c_id, 0, False, t_id, 0, False, 0, 0, False,
        _ED_PAYLOAD.pack(p0, p1, total_units),
    )
    ed_payload = EdPayload.__new__(EdPayload)
    _SET_P0(ed_payload, p0)
    _SET_P1(ed_payload, p1)
    _SET_TOTAL_UNITS(ed_payload, total_units)
    return ed_payload, ed_chunk


def decode_tpdu(chunks: list[Chunk], ed: EdPayload) -> bytes:
    """Receiver-side inverse of :func:`encode_tpdu` for complete TPDUs.

    *chunks* are the TPDU's DATA chunks in any order and any (even
    different-from-sender) fragmentation, but with no gaps and no
    overlapping units; *ed* is the parity payload carried by the
    ERROR_DETECTION chunk.  Verifies the fragmentation-invariant WSC-2
    check and returns the TPDU payload bytes in T.SN order.  For
    incremental arrival, duplicate-overlap handling and the full
    Table 1 reason classification use
    :class:`repro.wsc.endtoend.EndToEndReceiver`.

    Raises:
        ChunkError: chunks span multiple PDUs or are not DATA.
        ErrorDetectionMismatch: units are missing/duplicated
            (``"reassembly-error"``) or the parities disagree
            (``"code-mismatch"``).
    """
    if not chunks:
        raise ChunkError("a TPDU needs at least one DATA chunk")
    c_id = chunks[0].c_id
    t_id = chunks[0].t_id
    invariant = TpduInvariant(c_id, t_id)
    units: dict[int, bytes] = {}
    for chunk in chunks:
        if chunk.c_id != c_id or chunk.t_id != t_id:
            raise ChunkError("chunks span more than one (connection, TPDU)")
        invariant.add_chunk(chunk)
        for index in range(chunk.length):
            t_sn = chunk.t_sn + index
            if t_sn in units:
                _decoded(_DECODE_FAIL_REASSEMBLY)
                raise ErrorDetectionMismatch(
                    "reassembly-error", f"unit {t_sn} delivered more than once"
                )
            units[t_sn] = chunk.unit(index)
    missing = [t_sn for t_sn in range(ed.total_units) if t_sn not in units]
    if missing or len(units) != ed.total_units:
        _decoded(_DECODE_FAIL_REASSEMBLY)
        raise ErrorDetectionMismatch(
            "reassembly-error",
            f"expected units 0..{ed.total_units - 1}, missing {missing[:8]}"
            if missing
            else f"units beyond total_units={ed.total_units} present",
        )
    if not invariant.matches(ed.p0, ed.p1):
        _decoded(_DECODE_FAIL_CODE)
        raise ErrorDetectionMismatch("code-mismatch", "WSC-2 parities disagree")
    _decoded(_DECODE_OK)
    return b"".join(units[t_sn] for t_sn in range(ed.total_units))
