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
constants, the X pair's is cached by final T.SN — and none on a payload
run's either: ``add_bytes`` applies it as a shift (data ends below 16384).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.core.chunk import Chunk
from repro.core.errors import ChunkError, ErrorDetectionMismatch
from repro.core.types import MAX_TPDU_SYMBOLS, ChunkType
from repro.obs import counter
from repro.wsc.gf32 import alpha_pow, gf_mul, mul_alpha
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
_T_ID_WEIGHT, _C_ID_WEIGHT, _C_ST_WEIGHT = map(alpha_pow, (T_ID_POS, C_ID_POS, C_ST_POS))

_ED_PAYLOAD = struct.Struct(">III")
_DATA = ChunkType.DATA  # an enum member read is ~0.1 µs on CPython 3.11

_OBS_DECODE_OK = counter("wsc", "decode_ok", "whole-TPDU decodes that verified")
_OBS_DECODE_FAIL_REASSEMBLY = counter(
    "wsc", "decode_fail.reassembly-error", "whole-TPDU decodes failing reassembly"
)
_OBS_DECODE_FAIL_CODE = counter(
    "wsc", "decode_fail.code-mismatch", "whole-TPDU decodes with parity mismatch"
)


@lru_cache(maxsize=1024)
def _x_pair_weight(final_t_sn: int) -> int:
    """alpha^position of the X.ID keyed to *final_t_sn*; X.ST's is the next."""
    return alpha_pow(X_PAIR_BASE + 2 * final_t_sn)


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
        t_id &= 0xFFFFFFFF
        c_id &= 0xFFFFFFFF
        self.p0 = t_id ^ c_id
        self.p1 = gf_mul(_T_ID_WEIGHT, t_id) ^ gf_mul(_C_ID_WEIGHT, c_id)

    def add_chunk(self, chunk: Chunk) -> None:
        """Add a whole DATA chunk's contribution."""
        self.add_units(chunk, 0, chunk.length)

    def add_units(self, chunk: Chunk, first: int, last: int) -> None:
        """Add units ``[first, last)`` of *chunk* (chunk-relative).

        Receivers with duplicate partial overlap call this per fresh
        range so no symbol is ever accumulated twice.  Trigger encodings
        (C.ST and the X pair) belong to the chunk's final unit and are
        applied only when that unit is inside the range.
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
            # boundary element's T.SN so no two pairs collide.
            weight = _x_pair_weight(t_sn + length - 1)
            x_id &= 0xFFFFFFFF
            self.p0 ^= x_id
            self.p1 ^= gf_mul(weight, x_id)
            if x_st:
                self.p0 ^= 1
                self.p1 ^= mul_alpha(weight)

    @property
    def accumulator(self) -> Wsc2Accumulator:
        """The parity accumulator erasure repair reads: the invariant itself."""
        return self


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


def build_ed_chunk(c_id: int, t_id: int, payload: EdPayload) -> Chunk:
    """The TPDU's ERROR_DETECTION control chunk (library convention).

    Control chunks carry the IDs of the PDU they protect; SNs and the X
    tuple are zero, which is what makes the Appendix A ED-header elision
    transform exactly invertible.  Made without validation: the IDs are
    those of validated DATA chunks, every other field is a constant.
    """
    return Chunk._make(
        ChunkType.ERROR_DETECTION, 1, 3,
        c_id, 0, False, t_id, 0, False, 0, 0, False,
        payload.encode(),
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
        invariant.add_chunk(chunk)
        total_units = max(total_units, chunk.t_sn + chunk.length)
    p0, p1 = invariant.value()
    payload = EdPayload(p0, p1, total_units)
    return payload, build_ed_chunk(c_id, t_id, payload)


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
                _OBS_DECODE_FAIL_REASSEMBLY.inc()
                raise ErrorDetectionMismatch(
                    "reassembly-error", f"unit {t_sn} delivered more than once"
                )
            units[t_sn] = chunk.unit(index)
    missing = [t_sn for t_sn in range(ed.total_units) if t_sn not in units]
    if missing or len(units) != ed.total_units:
        _OBS_DECODE_FAIL_REASSEMBLY.inc()
        raise ErrorDetectionMismatch(
            "reassembly-error",
            f"expected units 0..{ed.total_units - 1}, missing {missing[:8]}"
            if missing
            else f"units beyond total_units={ed.total_units} present",
        )
    if not invariant.matches(ed.p0, ed.p1):
        _OBS_DECODE_FAIL_CODE.inc()
        raise ErrorDetectionMismatch("code-mismatch", "WSC-2 parities disagree")
    _OBS_DECODE_OK.inc()
    return b"".join(units[t_sn] for t_sn in range(ed.total_units))
