"""WSC-2: the weighted sum code of Section 4 / [MCAU 93a].

"A WSC-2 encoder takes 32-bit symbols of data and creates two 32-bit
parity symbols, P0 and P1":

    P0 = sum_i d_i                (GF(2^32) addition = XOR)
    P1 = sum_i alpha^i (x) d_i    (multiplication in GF(2^32))

"Acceptable values for i are 0 <= i < 2^29 - 2; if we have less than
2^29 - 2 data symbols, the i values left unused are equivalent to
encoding a symbol of zero at that i value.  Consequently, WSC-2 will
work correctly as long as the error detection protocol specifies which
unique value of i should be used for each symbol."

Because field addition is commutative and associative, the code can be
computed **on disordered data**: contributions may be accumulated in any
arrival order, split across any number of accumulators and combined.
That is the property the whole chunk design leans on (a CRC has no such
property — see :mod:`repro.wsc.crc` and the CLAIM-WSC bench).

``add_symbol`` / ``add_run`` are those sums written out bit-serially:
the specification and the tests' oracle.  ``add_bytes`` is the kernel
the transport runs: a run is one big integer of 32-bit lanes, P0 its
XOR-fold in halves; ``alpha = x`` makes ``alpha^j`` a left shift by j, so
``H = sum_j d_j x^j`` is log2(n) pairwise lane merges and the run's
position one more shift: it contributes ``reduce(H << s)``, one
``zlib.crc32`` (``POLY`` is CRC-32's; reflection and init/xor-out undone).
The two must agree bit for bit: P0/P1 travel in every ED chunk.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.wsc.gf32 import alpha_pow, gf_mul, mul_alpha

__all__ = [
    "MAX_POSITIONS",
    "Wsc2Accumulator",
    "wsc2_encode",
    "symbols_from_bytes",
    "bytes_from_symbols",
]

#: The paper's position budget: 0 <= i < 2^29 - 2.
MAX_POSITIONS = (1 << 29) - 2

_WORD = struct.Struct(">I")


def symbols_from_bytes(data: bytes) -> list[int]:
    """Big-endian 32-bit symbols; the tail is zero-padded to a word."""
    if len(data) % 4:
        data = data + b"\x00" * (4 - len(data) % 4)
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]


def bytes_from_symbols(symbols: Iterable[int]) -> bytes:
    """Inverse of :func:`symbols_from_bytes` (no padding removal)."""
    return b"".join(_WORD.pack(s) for s in symbols)


_BLOCK = 1024  # symbols folded at once; longer runs go block by block
_SHIFT_MASK = 0x3FFF  # the part of a run's start applied as a shift
#: Byte -> bit-reversed byte (zlib's CRC-32 is bit-reflected).
_BITREV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
#: Mask m: the later (low) half of every lane pair at merge level m; ~40 KiB.
_LANE_MASKS = tuple(
    int.from_bytes((bytes(4 << m) + b"\xff" * (4 << m)) * (_BLOCK >> m + 1), "big")
    for m in range(_BLOCK.bit_length() - 1)
)
#: Merge level m as (lane width in bits, its mask, the later lane's weight 2^m).
_MERGES = tuple((32 << m, mask, 1 << m) for m, mask in enumerate(_LANE_MASKS))


def _fold(data: bytes | memoryview) -> tuple[int, int]:
    """``(sum_j d_j, sum_j d_j x^j)``, unreduced, of at most _BLOCK symbols."""
    merges = _MERGES[: (-(-len(data) // 4) - 1).bit_length()]
    # Top-aligned in 2^len(merges) lanes: zero symbols appended contribute nothing.
    h = p0 = int.from_bytes(data, "big") << ((32 << len(merges)) - 8 * len(data))
    for width, mask, _ in reversed(merges):
        p0 = (p0 >> width) ^ (p0 & mask)
    for width, mask, weight in merges:
        h = ((h >> width) & mask) ^ ((h & mask) << weight)
    return p0, h


def _reduce(h: int) -> int:
    """*h* mod ``POLY``.  With ``h = q x^32 + r``, ``q x^32 mod POLY`` is
    zlib's CRC-32 of q's bits, init and xor-out 0, both reflections undone."""
    q = h >> 32
    message = q.to_bytes((q.bit_length() + 7) >> 3, "big").translate(_BITREV8)
    crc = zlib.crc32(message, 0xFFFFFFFF) ^ 0xFFFFFFFF
    return (h & 0xFFFFFFFF) ^ int.from_bytes(crc.to_bytes(4, "little").translate(_BITREV8), "big")


@dataclass(slots=True)
class Wsc2Accumulator:
    """An order-independent WSC-2 accumulator.

    Contributions are added one symbol or one contiguous run at a time,
    in any order; accumulators merge with :meth:`combine`.  The final
    ``(p0, p1)`` pair equals what a single in-order pass would produce.

    A run ``d_s .. d_{s+L-1}`` contributes ``alpha^s * H`` to P1, with
    ``H = sum_j alpha^j d_{s+j}``: :meth:`add_run`'s Horner loop times the
    ``alpha_pow`` weight (the definition), or :meth:`add_bytes`'s lane
    folds reduced as ``H << s`` (the kernel).
    """

    p0: int = 0
    p1: int = 0

    def add_symbol(self, position: int, value: int) -> None:
        """Add symbol *value* at weight position *position*."""
        self._check(position, 1, value)
        self.p0 ^= value
        self.p1 ^= gf_mul(alpha_pow(position), value)

    def add_run(self, start: int, values: Sequence[int]) -> None:
        """Add a contiguous run of symbols starting at *start*."""
        if not values:
            return
        p0 = horner = seen = 0
        # Horner over the run, highest index first, gives
        # H = v_0 + alpha*(v_1 + alpha*(v_2 + ...)) = sum_j alpha^j v_j.
        for value in reversed(values):
            horner = mul_alpha(horner) ^ value
            p0 ^= value
            seen |= value
        self._check(start, len(values), seen)
        self.p0 ^= p0
        self.p1 ^= gf_mul(alpha_pow(start), horner)

    def add_bytes(self, start: int, data: bytes | bytearray | memoryview) -> None:
        """Add a bytes-like run, zero-padded to whole symbols, at start, start+1, ..."""
        if type(data) is bytes and 0 < len(data) <= 4 * _BLOCK and 0 <= start <= _SHIFT_MASK:
            # A chunk's run: one block of bytes at a shift — no view, no loop,
            # no multiply, and inside the position budget by construction.
            p0, h = _fold(data)
            self.p0 ^= p0
            self.p1 ^= _reduce(h << start)
            return
        view = memoryview(data).cast("B")
        if not view:
            return
        self._check(start, -(-len(view) // 4))
        p0 = h = 0
        for offset in range(0, len(view), 4 * _BLOCK):
            block_p0, block_h = _fold(view[offset : offset + 4 * _BLOCK])
            p0 ^= block_p0
            h ^= block_h << (offset >> 2)
        self.p0 ^= p0
        # alpha^start * H is H << start, reduced.  Only start's low bits are
        # shifted (at the budget's edge the whole shift is a 64 MiB integer);
        # TPDU data lies within the mask, so the transport never multiplies.
        p1 = _reduce(h << (start & _SHIFT_MASK))
        if start > _SHIFT_MASK:
            p1 = gf_mul(alpha_pow(start & ~_SHIFT_MASK), p1)
        self.p1 ^= p1

    def combine(self, other: "Wsc2Accumulator") -> None:
        """Merge another accumulator's contributions into this one."""
        self.p0 ^= other.p0
        self.p1 ^= other.p1

    def value(self) -> tuple[int, int]:
        """The (P0, P1) parity pair."""
        return self.p0, self.p1

    def matches(self, p0: int, p1: int) -> bool:
        """Compare against a received parity pair."""
        return self.p0 == p0 and self.p1 == p1

    @staticmethod
    def _check(start: int, count: int, symbol_bits: int = 0) -> None:
        if start < 0 or start + count > MAX_POSITIONS:
            raise ValueError(
                f"positions [{start}, {start + count}) outside the WSC-2 "
                f"budget 0..{MAX_POSITIONS - 1}"
            )
        if not 0 <= symbol_bits <= 0xFFFFFFFF:
            raise ValueError("symbol value outside 0 .. 2**32 - 1")


def wsc2_encode(symbols: Sequence[int], start: int = 0) -> tuple[int, int]:
    """One-shot encoding of an in-order symbol sequence."""
    acc = Wsc2Accumulator()
    acc.add_run(start, symbols)
    return acc.value()
