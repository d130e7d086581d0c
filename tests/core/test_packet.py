"""Unit tests for packet envelopes and the Figure 4 repacking methods."""

import pytest

from repro.core.errors import PacketError
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import (
    Packet,
    pack_chunks,
    repack,
    repack_one_per_packet,
    repack_with_reassembly,
    unpack_all,
)
from repro.core.types import PACKET_HEADER_BYTES

from tests.helpers import make_chunk


class TestPacket:
    def test_wire_bytes(self):
        chunk = make_chunk(units=2)
        packet = Packet(chunks=[chunk])
        assert packet.wire_bytes == PACKET_HEADER_BYTES + chunk.wire_bytes

    def test_fixed_size_wire_bytes(self):
        packet = Packet(chunks=[make_chunk(units=1)], fixed_size=512)
        assert packet.wire_bytes == 512

    def test_encode_decode_roundtrip(self):
        items = [make_chunk(units=u, seed=u) for u in (2, 1, 4)]
        packet = Packet(chunks=items)
        assert Packet.decode(packet.encode()).chunks == items

    def test_fixed_size_roundtrip_with_padding(self):
        packet = Packet(chunks=[make_chunk(units=1)], fixed_size=300)
        blob = packet.encode()
        assert len(blob) == 300
        assert Packet.decode(blob).chunks == packet.chunks

    def test_header_overhead_accounting(self):
        chunk = make_chunk(units=10)
        packet = Packet(chunks=[chunk])
        assert packet.payload_bytes == 40
        assert packet.header_overhead == packet.wire_bytes - 40


class TestPackChunks:
    def test_all_chunks_packed(self):
        items = [make_chunk(units=3, seed=i) for i in range(10)]
        packets = pack_chunks(items, mtu=1500)
        assert unpack_all(packets) == items

    def test_respects_mtu(self):
        items = [make_chunk(units=30, seed=i) for i in range(5)]
        for packet in pack_chunks(items, mtu=256):
            assert packet.wire_bytes <= 256

    def test_fragments_oversized_chunks(self):
        big = make_chunk(units=200)
        packets = pack_chunks([big], mtu=256)
        assert len(packets) > 1
        payload = b"".join(c.payload for p in packets for c in p.chunks)
        assert payload == big.payload

    def test_combines_small_chunks(self):
        items = [make_chunk(units=1, seed=i) for i in range(8)]
        packets = pack_chunks(items, mtu=1500)
        assert len(packets) == 1

    def test_tiny_mtu_raises(self):
        with pytest.raises(PacketError):
            pack_chunks([make_chunk(units=1)], mtu=40)

    def test_fixed_size_mode(self):
        packets = pack_chunks([make_chunk(units=1)], mtu=128, fixed_size=True)
        assert all(p.wire_bytes == 128 for p in packets)


class TestFigure4Methods:
    """Small packets entering a large-MTU network, three ways."""

    def _small_packets(self):
        chunk = make_chunk(units=24, t_st=True)
        pieces = split_to_unit_limit(chunk, 4)
        return chunk, [Packet(chunks=[p]) for p in pieces]

    def test_method1_one_chunk_per_packet(self):
        chunk, small = self._small_packets()
        large = repack_one_per_packet(small, mtu=4096)
        assert len(large) == len(small)
        assert all(len(p.chunks) == 1 for p in large)

    def test_method2_combines_without_touching_headers(self):
        chunk, small = self._small_packets()
        large = repack(small, mtu=4096)
        assert len(large) == 1
        assert unpack_all(large) == unpack_all(small)  # headers unchanged

    def test_method3_reassembles_first(self):
        chunk, small = self._small_packets()
        large = repack_with_reassembly(small, mtu=4096)
        assert len(large) == 1
        assert large[0].chunks == [chunk]  # merged back to one chunk

    def test_method3_has_least_overhead(self):
        _, small = self._small_packets()
        bytes_m1 = sum(p.wire_bytes for p in repack_one_per_packet(small, 4096))
        bytes_m2 = sum(p.wire_bytes for p in repack(small, 4096))
        bytes_m3 = sum(p.wire_bytes for p in repack_with_reassembly(small, 4096))
        assert bytes_m3 < bytes_m2 < bytes_m1

    def test_method1_oversized_chunk_raises(self):
        big = make_chunk(units=100)
        with pytest.raises(PacketError):
            repack_one_per_packet([Packet(chunks=[big])], mtu=128)

    def test_repack_toward_smaller_mtu_fragments(self):
        chunk = make_chunk(units=64)
        small = repack([Packet(chunks=[chunk])], mtu=128)
        assert len(small) > 1
        for packet in small:
            assert packet.wire_bytes <= 128
