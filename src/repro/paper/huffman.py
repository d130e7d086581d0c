"""Canonical Huffman coding over bytes.

Appendix A: "In general, we can use positional information and Huffman
encoding to reduce the chunk header overhead within a packet."  This
module supplies the entropy-coding half: a canonical Huffman code built
from a byte-frequency model, with exact bit-level encode/decode.  The
packet-scope header compressor (:mod:`repro.paper.packetcomp`) pairs it
with positional (intra-packet delta) header encoding.

Codes are *canonical* so a code is fully described by its 256 code
lengths — both ends can share a static model by specification, or a
sender can ship the 256-length table when adaptive coding pays.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["HuffmanCode", "DEFAULT_HEADER_CODE"]


def _code_lengths(frequencies: list[int]) -> list[int]:
    """Huffman code length per symbol (0 for absent symbols)."""
    heap: list[tuple[int, int, tuple[int, ...]]] = []
    tie = 0
    for symbol, frequency in enumerate(frequencies):
        if frequency > 0:
            heap.append((frequency, tie, (symbol,)))
            tie += 1
    if not heap:
        raise ValueError("at least one symbol must have nonzero frequency")
    if len(heap) == 1:
        return [1 if frequencies[s] else 0 for s in range(len(frequencies))]
    heapq.heapify(heap)
    lengths = [0] * len(frequencies)
    while len(heap) > 1:
        fa, _, sa = heapq.heappop(heap)
        fb, _, sb = heapq.heappop(heap)
        for symbol in sa + sb:
            lengths[symbol] += 1
        heapq.heappush(heap, (fa + fb, tie, sa + sb))
        tie += 1
    return lengths


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical Huffman code over the byte alphabet."""

    lengths: tuple[int, ...]

    @classmethod
    def from_frequencies(cls, frequencies: list[int]) -> "HuffmanCode":
        """Build from a 256-entry frequency table.

        Every symbol is given at least frequency 1 so any byte remains
        encodable (a header compressor cannot afford escape sequences).
        """
        if len(frequencies) != 256:
            raise ValueError("need exactly 256 frequencies")
        padded = [max(1, f) for f in frequencies]
        return cls(tuple(_code_lengths(padded)))

    @classmethod
    def from_sample(cls, sample: bytes) -> "HuffmanCode":
        frequencies = [0] * 256
        for byte in sample:
            frequencies[byte] += 1
        return cls.from_frequencies(frequencies)

    # ------------------------------------------------------------------

    def _canonical_codes(self) -> list[tuple[int, int]]:
        """(code, length) per symbol, in canonical order."""
        order = sorted(
            (s for s in range(256) if self.lengths[s] > 0),
            key=lambda s: (self.lengths[s], s),
        )
        codes: list[tuple[int, int]] = [(0, 0)] * 256
        code = 0
        previous_length = 0
        for symbol in order:
            length = self.lengths[symbol]
            code <<= length - previous_length
            codes[symbol] = (code, length)
            code += 1
            previous_length = length
        return codes

    def encode(self, data: bytes) -> tuple[bytes, int]:
        """Encode; returns (bit-packed bytes, exact bit count)."""
        codes = self._canonical_codes()
        accumulator = 0
        bits = 0
        out = bytearray()
        for byte in data:
            code, length = codes[byte]
            accumulator = (accumulator << length) | code
            bits += length
            while bits >= 8:
                bits -= 8
                out.append((accumulator >> bits) & 0xFF)
        total_bits = len(out) * 8 + bits
        if bits:
            out.append((accumulator << (8 - bits)) & 0xFF)
        return bytes(out), total_bits

    def decode(self, data: bytes, bit_count: int) -> bytes:
        """Exact inverse of :meth:`encode`."""
        # Build a (length, code) -> symbol map.
        table: dict[tuple[int, int], int] = {}
        for symbol, (code, length) in enumerate(self._canonical_codes()):
            if length:
                table[(length, code)] = symbol
        out = bytearray()
        code = 0
        length = 0
        consumed = 0
        max_length = max(self.lengths)
        for byte in data:
            for bit_index in range(7, -1, -1):
                if consumed >= bit_count:
                    break
                consumed += 1
                code = (code << 1) | ((byte >> bit_index) & 1)
                length += 1
                symbol = table.get((length, code))
                if symbol is not None:
                    out.append(symbol)
                    code = 0
                    length = 0
                elif length > max_length:
                    raise ValueError("invalid Huffman bitstream")
        if length:
            raise ValueError("truncated Huffman bitstream")
        return bytes(out)

    def mean_bits_per_byte(self, sample: bytes) -> float:
        """Average code length over *sample* (compression estimate)."""
        if not sample:
            return 0.0
        return sum(self.lengths[b] for b in sample) / len(sample)


def _default_header_frequencies() -> list[int]:
    """A static model of compact chunk-header bytes.

    Chunk headers are dominated by small varints and zero bytes; the
    exact shape matters little (canonical Huffman is robust), it only
    needs to be *agreed* by both ends, per Appendix A's
    share-by-specification option.
    """
    frequencies = [1] * 256
    frequencies[0x00] = 600
    for value in range(1, 16):
        frequencies[value] = 180
    for value in range(16, 64):
        frequencies[value] = 40
    for value in range(64, 128):
        frequencies[value] = 12
    frequencies[0x01] = 400  # TYPE=DATA
    frequencies[0x02] = 260  # TYPE=ED
    frequencies[0x80] = 30   # varint continuation of small values
    return frequencies


#: The by-specification static code both ends assume.
DEFAULT_HEADER_CODE = HuffmanCode.from_frequencies(_default_header_frequencies())
