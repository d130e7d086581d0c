"""Arithmetic in GF(2^32).

WSC-2 (Section 4) performs "addition and multiplication performed in
GF(2^32)".  We construct the field as GF(2)[x] / p(x) with

    p(x) = x^32 + x^26 + x^23 + x^22 + x^16 + x^12 + x^11 + x^10
         + x^8 + x^7 + x^5 + x^4 + x^2 + x + 1

— the IEEE 802.3 CRC-32 polynomial, which is primitive, so the element
``alpha = x`` (0x2) generates the full multiplicative group of order
2^32 - 1.  That comfortably covers the paper's position budget of
0 <= i < 2^29 - 2 distinct weights.

Addition is XOR; multiplication is carry-less multiply followed by
reduction, written bit-serially.  This module is the definition; the
byte-run kernel in :mod:`repro.wsc.wsc2` leans on ``alpha = x`` and on
``p(x)`` being zlib's CRC-32 polynomial, and must agree with it.
"""

from __future__ import annotations

from array import array
from typing import Callable

__all__ = [
    "POLY",
    "ORDER",
    "ALPHA",
    "gf_add",
    "gf_mul",
    "gf_mul_const",
    "gf_pow",
    "gf_inv",
    "alpha_pow",
    "mul_alpha",
]

#: Reduction polynomial including the x^32 term.
POLY = 0x104C11DB7

#: Size of the multiplicative group (alpha is primitive).
ORDER = (1 << 32) - 1

#: The generator element x.
ALPHA = 0x2

_MASK32 = 0xFFFFFFFF
_BIT32 = 1 << 32


def gf_add(a: int, b: int) -> int:
    """Field addition (= subtraction): XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Field multiplication: bit-serial carry-less multiply + reduce."""
    a &= _MASK32
    b &= _MASK32
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & _BIT32:
            a ^= POLY
    return result


def gf_pow(base: int, exponent: int) -> int:
    """base**exponent by square-and-multiply; exponent may exceed ORDER."""
    if exponent < 0:
        return gf_pow(gf_inv(base), -exponent)
    exponent %= ORDER
    result = 1
    base &= _MASK32
    while exponent:
        if exponent & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        exponent >>= 1
    return result


def gf_inv(a: int) -> int:
    """Multiplicative inverse: a**(2^32 - 2)."""
    if a & _MASK32 == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^32)")
    return gf_pow(a, ORDER - 1)


# Precomputed alpha^(2^k) so alpha_pow costs one gf_mul per set bit of i.
_ALPHA_SQUARES: list[int] = []
_value = ALPHA
for _ in range(64):
    _ALPHA_SQUARES.append(_value)
    _value = gf_mul(_value, _value)
del _value


def alpha_pow(i: int) -> int:
    """alpha**i — the weight of position *i* in WSC-2."""
    i %= ORDER
    result = 1
    bit = 0
    while i:
        if i & 1:
            result = gf_mul(result, _ALPHA_SQUARES[bit])
        i >>= 1
        bit += 1
    return result


def mul_alpha(a: int) -> int:
    """a * alpha — one shift plus conditional reduce (the Horner step)."""
    a <<= 1
    if a & _BIT32:
        a ^= POLY
    return a


def gf_mul_const(weight: int) -> Callable[[int], int]:
    """``lambda value: gf_mul(weight, value)`` as four byte-table lookups.

    Multiplying by a constant is GF(2)-linear in the value's bits, so the
    product is the XOR of one table entry per value byte.  The tables are
    built from the 32 basis products ``weight * x^k`` (``mul_alpha``
    steps): a byte's table doubles eight times, the entries with bit k set
    being those below 2^k plus basis product k.  They are 32-bit arrays,
    4 KiB a weight: callers cache one per weight.
    """
    basis = []
    product = weight & _MASK32
    for _ in range(32):
        basis.append(product)
        product = mul_alpha(product)
    tables = []
    for byte in range(4):
        table = [0]
        for product in basis[8 * byte : 8 * byte + 8]:
            table += [entry ^ product for entry in table]  # the values with this bit set
        tables.append(array("I", table))
    t0, t1, t2, t3 = tables

    def times_weight(value: int) -> int:
        value &= _MASK32
        return t0[value & 0xFF] ^ t1[value >> 8 & 0xFF] ^ t2[value >> 16 & 0xFF] ^ t3[value >> 24]

    return times_weight
