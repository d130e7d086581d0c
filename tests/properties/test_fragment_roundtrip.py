"""Property suite: chunk *streams* survive arbitrary re-enveloping.

Stream-level counterpart of tests/core/test_fragment_properties.py: a
whole builder-produced chunk stream — several external PDUs, several
TPDUs, realistic label adjacency — is fragmented per-chunk, shuffled,
and reassembled; and the Figure 4 repacking strategies are checked to
be lossless, with method 3 (reassemble-then-repack) never needing more
packets than method 2 (header-preserving repack).
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import (
    pack_chunks,
    repack,
    repack_with_reassembly,
    unpack_all,
)
from repro.core.reassemble import coalesce
from repro.core.types import HEADER_BYTES, PACKET_HEADER_BYTES, WORD_BYTES
from tests.helpers import make_payload
from tests.properties.test_compress_invertible import streams_with_stray_eds

# Smallest MTU that can carry a packet envelope, one chunk header, and
# one atomic unit (unit_words=1 throughout this suite).
MIN_MTU = PACKET_HEADER_BYTES + HEADER_BYTES + WORD_BYTES


@st.composite
def chunk_streams(draw) -> list[Chunk]:
    """A realistic stream: frames and TPDUs deliberately unaligned."""
    tpdu_units = draw(st.integers(2, 12))
    connection_id = draw(st.integers(0, 255))
    frame_units = draw(st.lists(st.integers(1, 10), min_size=1, max_size=5))
    builder = ChunkStreamBuilder(connection_id=connection_id, tpdu_units=tpdu_units)
    chunks: list[Chunk] = []
    for frame_id, units in enumerate(frame_units):
        chunks += builder.add_frame(
            make_payload(units, 1, seed=frame_id + 1), frame_id=frame_id
        )
    return chunks


def _stream_payload(chunks: list[Chunk]) -> bytes:
    """Connection payload in C.SN order (the application's view)."""
    ordered = sorted(chunks, key=lambda ch: ch.c.sn)
    return b"".join(ch.payload for ch in ordered)


@given(chunk_streams(), st.integers(1, 6), st.integers(0, 2**32))
def test_stream_survives_fragment_shuffle_reassemble(stream, limit, shuffle_seed):
    pieces = [p for chunk in stream for p in split_to_unit_limit(chunk, limit)]
    random.Random(shuffle_seed).shuffle(pieces)
    reassembled = coalesce(pieces)
    assert reassembled == coalesce(stream)
    assert _stream_payload(reassembled) == _stream_payload(stream)


@given(chunk_streams(), st.integers(MIN_MTU, 160), st.integers(MIN_MTU, 160))
def test_repack_with_reassembly_is_lossless(stream, mtu_in, mtu_out):
    packets = pack_chunks(stream, mtu_in)
    out = repack_with_reassembly(packets, mtu_out)
    assert coalesce(unpack_all(out)) == coalesce(stream)
    assert _stream_payload(unpack_all(out)) == _stream_payload(stream)
    for packet in out:
        assert packet.wire_bytes <= mtu_out


@given(chunk_streams(), st.integers(MIN_MTU, 160), st.integers(MIN_MTU, 160))
def test_plain_repack_is_lossless(stream, mtu_in, mtu_out):
    packets = pack_chunks(stream, mtu_in)
    out = repack(packets, mtu_out)
    assert coalesce(unpack_all(out)) == coalesce(stream)
    for packet in out:
        assert packet.wire_bytes <= mtu_out


@given(chunk_streams(), st.integers(MIN_MTU, 120), st.integers(MIN_MTU, 160))
def test_reassembly_repack_never_needs_more_packets(stream, mtu_in, mtu_out):
    """Figure 4: method 3 merges headers away, so it can only do better
    than method 2 on packet count."""
    packets = pack_chunks(stream, mtu_in)
    assert len(repack_with_reassembly(packets, mtu_out)) <= len(repack(packets, mtu_out))


@given(streams_with_stray_eds(), st.integers(60, 200), st.integers(60, 200))
def test_reassembly_repack_never_needs_more_packets_with_ed_chunks(wire, mtu_in, mtu_out):
    """By construction, not by luck: with ED chunks that ride header-less
    behind their final DATA chunk and stray control chunks that cannot
    be cut, method 3 keeps method 2's order and charges, so it is still
    never worse (a merge that sorts the control chunks last can be)."""
    packets = pack_chunks(wire, mtu_in)
    merged = repack_with_reassembly(packets, mtu_out)
    assert len(merged) <= len(repack(packets, mtu_out))
    assert coalesce(unpack_all(merged)) == coalesce(wire)
