"""Unit tests for XTEA and the two cipher modes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paper.modes import (
    CbcDisorderedDecryptor,
    CbcMode,
    PositionKeyedMode,
    split_blocks,
)
from repro.paper.xtea import BLOCK_BYTES, Xtea

KEY = bytes(range(16))


class TestXtea:
    def test_known_vector(self):
        # Standard XTEA vector: key 000102...0f, plaintext 4142434445464748.
        cipher = Xtea(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        assert cipher.encrypt_block(bytes.fromhex("4142434445464748")) == bytes.fromhex(
            "497df3d072612cb5"
        )

    def test_zero_vector(self):
        cipher = Xtea(b"\x00" * 16)
        assert cipher.encrypt_block(b"\x00" * 8) == bytes.fromhex("dee9d4d8f7131ed9")

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_decrypt_inverts_encrypt(self, block, key):
        cipher = Xtea(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            Xtea(b"short")

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            Xtea(KEY).encrypt_block(b"toolongblock")

    def test_different_keys_differ(self):
        a = Xtea(KEY).encrypt_block(b"AAAAAAAA")
        b = Xtea(bytes(range(1, 17))).encrypt_block(b"AAAAAAAA")
        assert a != b


class TestSplitBlocks:
    def test_split(self):
        assert split_blocks(b"a" * 16) == [b"a" * 8, b"a" * 8]

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            split_blocks(b"a" * 12)


class TestCbc:
    def test_roundtrip(self):
        mode = CbcMode(Xtea(KEY))
        plaintext = bytes(range(64))
        assert mode.decrypt(mode.encrypt(plaintext)) == plaintext

    def test_chaining_propagates(self):
        """Identical plaintext blocks encrypt differently under CBC."""
        mode = CbcMode(Xtea(KEY))
        ciphertext = mode.encrypt(b"\x11" * 24)
        blocks = split_blocks(ciphertext)
        assert len(set(blocks)) == 3

    def test_disordered_decryption_stalls(self):
        """Blocks arriving out of order cannot all decrypt on arrival."""
        mode = CbcMode(Xtea(KEY))
        plaintext = bytes(range(80))
        blocks = split_blocks(mode.encrypt(plaintext))
        order = list(enumerate(blocks))
        random.Random(6).shuffle(order)
        decryptor = CbcDisorderedDecryptor(Xtea(KEY))
        for index, block in order:
            decryptor.add_block(index, block)
        assert decryptor.stalled_arrivals > 0
        assert decryptor.plaintext(len(blocks)) == plaintext

    def test_in_order_decryption_never_stalls(self):
        mode = CbcMode(Xtea(KEY))
        plaintext = bytes(range(80))
        blocks = split_blocks(mode.encrypt(plaintext))
        decryptor = CbcDisorderedDecryptor(Xtea(KEY))
        for index, block in enumerate(blocks):
            decryptor.add_block(index, block)
        assert decryptor.stalled_arrivals == 0
        assert decryptor.plaintext(len(blocks)) == plaintext


class TestPositionKeyed:
    def test_roundtrip(self):
        mode = PositionKeyedMode(Xtea(KEY), nonce=7)
        plaintext = bytes(range(72))
        assert mode.decrypt_at(0, mode.encrypt_at(0, plaintext)) == plaintext

    def test_any_fragment_decrypts_in_isolation(self):
        """The chunk-friendly property: position + bytes is enough."""
        mode = PositionKeyedMode(Xtea(KEY), nonce=7)
        plaintext = bytes(range(96))
        ciphertext = mode.encrypt_at(0, plaintext)
        pieces = [(0, 24), (24, 56), (56, 96)]
        random.Random(1).shuffle(pieces)
        out = bytearray(96)
        for start, end in pieces:
            out[start:end] = mode.decrypt_at(start // BLOCK_BYTES, ciphertext[start:end])
        assert bytes(out) == plaintext

    def test_nonce_separates_streams(self):
        a = PositionKeyedMode(Xtea(KEY), nonce=1).encrypt_at(0, b"\x00" * 16)
        b = PositionKeyedMode(Xtea(KEY), nonce=2).encrypt_at(0, b"\x00" * 16)
        assert a != b

    def test_position_matters(self):
        mode = PositionKeyedMode(Xtea(KEY))
        a = mode.encrypt_at(0, b"\x00" * 8)
        b = mode.encrypt_at(1, b"\x00" * 8)
        assert a != b
