"""Block cipher modes: order-dependent vs. order-independent.

Section 1 cites [FELD 92]: "there exist protocol operations that provide
the equivalent functionality of CRC error detection and DES cipher block
chaining encryption, but with the additional property that they can be
performed on disordered data."  This module provides both sides:

- :class:`CbcMode` — classic cipher block chaining.  Decrypting block i
  needs ciphertext block i-1, so a receiver of disordered chunks either
  stalls or buffers (:class:`CbcDisorderedDecryptor` quantifies the
  stall).
- :class:`PositionKeyedMode` — a counter/tweak construction: block i is
  XORed with ``E_k(nonce || i)``.  Any block decrypts in isolation given
  its position, which chunks carry explicitly in their SN — so
  decryption can run chunk-by-chunk in arrival order.

Both operate on 64-bit blocks; the chunk SIZE field (2 words) keeps
blocks atomic under fragmentation, which is exactly why SIZE exists.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.paper.xtea import BLOCK_BYTES, Xtea

__all__ = ["CbcMode", "CbcDisorderedDecryptor", "PositionKeyedMode", "split_blocks"]


def split_blocks(data: bytes) -> list[bytes]:
    """Split into 64-bit blocks; data must be block-aligned."""
    if len(data) % BLOCK_BYTES:
        raise ValueError(f"data ({len(data)} bytes) is not 8-byte aligned")
    return [data[i : i + BLOCK_BYTES] for i in range(0, len(data), BLOCK_BYTES)]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass
class CbcMode:
    """Cipher block chaining over XTEA."""

    cipher: Xtea
    iv: bytes = b"\x00" * BLOCK_BYTES

    def encrypt(self, plaintext: bytes) -> bytes:
        previous = self.iv
        out = bytearray()
        for block in split_blocks(plaintext):
            previous = self.cipher.encrypt_block(_xor(block, previous))
            out += previous
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        previous = self.iv
        out = bytearray()
        for block in split_blocks(ciphertext):
            out += _xor(self.cipher.decrypt_block(block), previous)
            previous = block
        return bytes(out)


@dataclass
class CbcDisorderedDecryptor:
    """CBC decryption fed ciphertext blocks in arrival order.

    Block *i* can produce plaintext only once ciphertext *i-1* is also
    present, so disordered arrivals stall: the class buffers unmatched
    blocks and counts how many block-arrivals could not be processed
    immediately — the order penalty chunks let you avoid entirely with
    a position-keyed mode.
    """

    cipher: Xtea
    iv: bytes = b"\x00" * BLOCK_BYTES
    _blocks: dict[int, bytes] = field(default_factory=dict)
    _decrypted: dict[int, bytes] = field(default_factory=dict)
    stalled_arrivals: int = 0
    immediate_arrivals: int = 0

    def add_block(self, index: int, ciphertext_block: bytes) -> list[tuple[int, bytes]]:
        """Add ciphertext block *index*; returns newly decryptable blocks."""
        self._blocks[index] = ciphertext_block
        produced: list[tuple[int, bytes]] = []
        # This block may now be decryptable, and may unblock index+1.
        for candidate in (index, index + 1):
            plain = self._try_decrypt(candidate)
            if plain is not None:
                produced.append((candidate, plain))
        if produced and produced[0][0] == index:
            self.immediate_arrivals += 1
        else:
            self.stalled_arrivals += 1
        return produced

    def _try_decrypt(self, index: int) -> bytes | None:
        if index in self._decrypted or index not in self._blocks:
            return None
        previous = self.iv if index == 0 else self._blocks.get(index - 1)
        if previous is None:
            return None
        plain = _xor(self.cipher.decrypt_block(self._blocks[index]), previous)
        self._decrypted[index] = plain
        return plain

    def plaintext(self, total_blocks: int) -> bytes:
        """Assembled plaintext once every block has been decrypted."""
        return b"".join(self._decrypted[i] for i in range(total_blocks))


@dataclass
class PositionKeyedMode:
    """Order-independent encryption: C_i = P_i xor E_k(nonce || i).

    The keystream depends only on the block *position*, which every
    chunk carries explicitly (SN), so any fragment decrypts on arrival.
    """

    cipher: Xtea
    nonce: int = 0

    def _keystream(self, index: int) -> bytes:
        return self.cipher.encrypt_block(struct.pack(">II", self.nonce, index))

    def encrypt_at(self, index: int, plaintext: bytes) -> bytes:
        """Encrypt block-aligned *plaintext* starting at block *index*."""
        out = bytearray()
        for i, block in enumerate(split_blocks(plaintext)):
            out += _xor(block, self._keystream(index + i))
        return bytes(out)

    def decrypt_at(self, index: int, ciphertext: bytes) -> bytes:
        """Decrypt any block run in isolation — disorder-proof."""
        return self.encrypt_at(index, ciphertext)
