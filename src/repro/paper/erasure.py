"""Erasure repair with WSC-2 parities (an extension the code's algebra buys).

The paper uses WSC-2 purely for *detection*, but the two parity symbols

    P0 = sum_i d_i,     P1 = sum_i alpha^i d_i

form two independent linear equations over GF(2^32), so a receiver that
knows *which* symbols are missing (and chunks always know — virtual
reassembly names the missing unit ranges exactly) can solve for up to
two of them instead of waiting a round trip for retransmission:

- one erasure at position j:    d_j = s0
- two erasures at j and k:      d_j = (s1 + alpha^k * s0) / (alpha^j + alpha^k)
                                d_k = s0 + d_j

where s0/s1 are the differences between the received parities and the
parities of the symbols that did arrive.  (alpha^j != alpha^k because
alpha is primitive and positions stay below 2^29 - 2, so the divisor is
never zero.)

After repair, both parity equations hold by construction; repair is
therefore only *trusted* when the erasure count is <= 2 and everything
else verified — exactly like any erasure code, corruption of a present
symbol must first be ruled out by the detection path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ErasureError
from repro.wsc.gf32 import alpha_pow, gf_add, gf_inv, gf_mul
from repro.wsc.wsc2 import Wsc2Accumulator

__all__ = ["ErasureError", "recover_erasures", "repair_missing_word"]


@dataclass(frozen=True, slots=True)
class _Syndrome:
    s0: int
    s1: int


def _syndrome(received: Wsc2Accumulator, expected_p0: int, expected_p1: int) -> _Syndrome:
    return _Syndrome(received.p0 ^ expected_p0, received.p1 ^ expected_p1)


def recover_erasures(
    received: Wsc2Accumulator,
    expected_p0: int,
    expected_p1: int,
    missing_positions: list[int],
) -> dict[int, int]:
    """Solve for up to two missing symbols.

    Args:
        received: accumulator over every symbol that *did* arrive
            (at its correct position).
        expected_p0 / expected_p1: the transmitted parity pair.
        missing_positions: the known-missing symbol positions (from
            virtual reassembly's gap list).

    Returns:
        ``{position: symbol_value}`` for each missing position.

    Raises:
        ErasureError: more than two erasures, duplicate positions, or an
            inconsistent zero-erasure syndrome (i.e. corruption rather
            than pure erasure — fall back to retransmission).
    """
    if len(set(missing_positions)) != len(missing_positions):
        raise ErasureError("duplicate erasure positions")
    syndrome = _syndrome(received, expected_p0, expected_p1)

    if not missing_positions:
        if syndrome.s0 or syndrome.s1:
            raise ErasureError(
                "nothing is missing yet the parities disagree: corruption, "
                "not erasure"
            )
        return {}

    if len(missing_positions) == 1:
        j = missing_positions[0]
        value = syndrome.s0
        # Cross-check with the weighted equation: catches the case where
        # a *present* symbol was corrupted as well as one lost.
        if gf_mul(alpha_pow(j), value) != syndrome.s1:
            raise ErasureError(
                "single-erasure solution fails the weighted equation: "
                "additional corruption present"
            )
        return {j: value}

    if len(missing_positions) == 2:
        j, k = missing_positions
        weight_j = alpha_pow(j)
        weight_k = alpha_pow(k)
        divisor = gf_add(weight_j, weight_k)
        if divisor == 0:  # impossible while positions < ORDER, kept as a guard
            raise ErasureError("erasure weights coincide")
        d_j = gf_mul(
            gf_add(syndrome.s1, gf_mul(weight_k, syndrome.s0)),
            gf_inv(divisor),
        )
        d_k = gf_add(syndrome.s0, d_j)
        return {j: d_j, k: d_k}

    raise ErasureError(
        f"{len(missing_positions)} erasures exceed WSC-2's two-equation budget"
    )


def repair_missing_word(
    invariant,
    expected_p0: int,
    expected_p1: int,
    word_position: int,
) -> bytes:
    """Recover ONE missing 32-bit data word of a TPDU in place of a
    retransmission round trip.

    *invariant* is the receiver's :class:`~repro.wsc.invariant.
    TpduInvariant` holding every contribution that arrived; the missing
    word is assumed to carry no trigger encodings (interior data).  The
    single-erasure path cross-checks both parity equations, so the
    trigger-bearing case — where the word's X-pair symbols are missing
    too — cannot be silently mis-repaired: it raises and the caller
    falls back to retransmission.

    Returns the recovered 4-byte word.
    """
    solved = recover_erasures(invariant, expected_p0, expected_p1, [word_position])
    return solved[word_position].to_bytes(4, "big")
