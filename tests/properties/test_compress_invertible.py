"""Property suite: Appendix A header compression is exactly invertible.

"The chunk syntax transformations that we discuss in this section are
invertible, because they allow recovery of the original chunk syntax."
Every transform the library implements — varints, SIZE/C.ID elision,
implicit T.ID (Figure 7), SN regeneration, and the fixed-field codec's
ED-header elision — must round-trip builder-produced streams bit-exactly.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.codec import decode_chunks, encode_chunks
from repro.paper.compress import (
    CompressionProfile,
    HeaderCompressor,
    HeaderDecompressor,
    decode_varint,
    encode_varint,
    implicit_tpdu_ids,
)
from repro.core.packet import Packet, pack_chunks
from repro.core.tuples import FramingTuple
from repro.core.types import HEADER_BYTES, ChunkType
from repro.wsc.invariant import EdPayload, build_ed_chunk, encode_tpdu
from tests.conftest import make_payload


@given(st.integers(0, 2**63 - 1))
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, consumed = decode_varint(encoded, 0)
    assert decoded == value
    assert consumed == len(encoded)


@given(st.lists(st.integers(0, 2**32), min_size=1, max_size=8))
def test_varint_stream_roundtrip(values):
    blob = b"".join(encode_varint(v) for v in values)
    offset = 0
    decoded = []
    while offset < len(blob):
        value, offset = decode_varint(blob, offset)
        decoded.append(value)
    assert decoded == values


@st.composite
def stream_and_profile(draw) -> tuple[list[Chunk], CompressionProfile]:
    connection_id = draw(st.integers(0, 1000))
    tpdu_units = draw(st.integers(2, 10))
    implicit = draw(st.booleans())
    builder = ChunkStreamBuilder(connection_id=connection_id, tpdu_units=tpdu_units)
    chunks: list[Chunk] = []
    frame_units = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    for frame_id, units in enumerate(frame_units):
        chunks += builder.add_frame(
            make_payload(units, 1, seed=frame_id + 1), frame_id=frame_id
        )
    if implicit:
        chunks = implicit_tpdu_ids(chunks)
    profile = CompressionProfile(
        size_by_type={ChunkType.DATA: 1} if draw(st.booleans()) else {},
        connection_id=connection_id if draw(st.booleans()) else None,
        implicit_t_id=implicit,
        regenerate_sns=draw(st.booleans()),
    )
    return chunks, profile


@given(stream_and_profile())
def test_header_compression_roundtrip(pair):
    """Compact encoding under any profile decodes to the original chunks."""
    chunks, profile = pair
    compressor = HeaderCompressor(profile)
    decompressor = HeaderDecompressor(profile)
    blob = b"".join(compressor.encode(chunk) for chunk in chunks)
    offset = 0
    decoded = []
    while offset < len(blob):
        chunk, offset = decompressor.decode(blob, offset)
        decoded.append(chunk)
    assert decoded == chunks


@given(stream_and_profile())
def test_compression_never_grows_past_plain_encoding(pair):
    """The compact form is at most the uncompressed wire size per chunk."""
    chunks, profile = pair
    compressor = HeaderCompressor(profile)
    for chunk in chunks:
        assert len(compressor.encode(chunk)) <= chunk.wire_bytes


@st.composite
def tpdu_streams_with_ed(draw) -> list[Chunk]:
    """A DATA stream with each completed TPDU's ED chunk in wire position."""
    tpdu_units = draw(st.integers(2, 8))
    builder = ChunkStreamBuilder(
        connection_id=draw(st.integers(0, 255)), tpdu_units=tpdu_units
    )
    data: list[Chunk] = []
    frame_units = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    for frame_id, units in enumerate(frame_units):
        last = frame_id == len(frame_units) - 1
        data += builder.add_frame(
            make_payload(units, 1, seed=frame_id + 1),
            frame_id=frame_id,
            end_of_connection=last,
        )
    # Interleave ED chunks exactly where the transport sender does:
    # directly after the DATA chunk that completes each TPDU.
    by_tpdu: dict[int, list[Chunk]] = {}
    wire: list[Chunk] = []
    for chunk in data:
        by_tpdu.setdefault(chunk.t.ident, []).append(chunk)
        wire.append(chunk)
        if chunk.t.st:
            _, ed = encode_tpdu(by_tpdu[chunk.t.ident])
            wire.append(ed)
    return wire


@given(tpdu_streams_with_ed())
def test_ed_header_elision_roundtrip(wire):
    encoded = encode_chunks(wire)
    assert decode_chunks(encoded) == wire
    # Every ED chunk in wire position goes without a header (they all
    # follow their TPDU's final DATA chunk by construction).
    n_ed = sum(1 for c in wire if c.type is ChunkType.ERROR_DETECTION)
    assert len(encoded) == sum(c.wire_bytes for c in wire) - HEADER_BYTES * n_ed


@given(tpdu_streams_with_ed())
def test_ed_header_elision_saves_bytes(wire):
    data = [c for c in wire if c.is_data]
    assert len(encode_chunks(wire)) == len(encode_chunks(data)) + 12 * (len(wire) - len(data))


#: An ED chunk repeated as is, or with one label field off the convention
#: that lets its header go unsent.
STRAY_EDS = {
    "retransmitted": lambda ed: ed,
    "T.ID": lambda ed: ed.replace(t=FramingTuple(ed.t_id + 1, 0, False)),
    "C.SN": lambda ed: ed.replace(c=FramingTuple(ed.c_id, 1, False)),
    "C.ST": lambda ed: ed.replace(c=FramingTuple(ed.c_id, 0, True)),
    "X.ID": lambda ed: ed.replace(x=FramingTuple(1, 0, False)),
    "LEN": lambda ed: ed.replace(length=2, payload=ed.payload[:8]),
}


@st.composite
def streams_with_stray_eds(draw) -> list[Chunk]:
    """A TPDU stream with stray ED chunks put in anywhere, right behind
    a final DATA chunk included."""
    wire = draw(tpdu_streams_with_ed())
    eds = [c for c in wire if c.type is ChunkType.ERROR_DETECTION]
    for _ in range(draw(st.integers(0, 4))):
        stray = STRAY_EDS[draw(st.sampled_from(sorted(STRAY_EDS)))](draw(st.sampled_from(eds)))
        wire.insert(draw(st.integers(0, len(wire))), stray)
    return wire


@given(streams_with_stray_eds(), st.integers(120, 600), st.booleans())
def test_packed_packets_decode_to_their_chunks_at_their_wire_size(wire, mtu, fixed):
    """What ``pack_chunks`` packs round-trips through the codec, and a
    packet's ``wire_bytes`` is what it encodes to: a header saved for
    each ED chunk in the convention right behind its final DATA chunk.
    Packing is first fit at that honest size: the next packet's first
    chunk, sized as the codec would write it behind this packet's
    chunks, would not have fit, so no final DATA chunk is parted from
    its ED chunk where the two fit in one packet."""
    packets = pack_chunks(wire, mtu, fixed_size=fixed)
    for packet, following in zip(packets, packets[1:]):
        data, head = packet.chunks[-1], following.chunks[0]
        assert 4 + len(encode_chunks([*packet.chunks, head])) > mtu
        if data.is_data and data.t_st and head.is_control and len(head.payload) == 12:
            if head == build_ed_chunk(data.c_id, data.t_id, EdPayload.decode(head.payload)):
                assert 4 + len(encode_chunks(packet.chunks)) + 12 > mtu
    for packet in packets:
        encoded = packet.encode()
        assert Packet.decode(encoded).chunks == packet.chunks
        assert packet.wire_bytes == len(encoded) <= mtu
        assert packet.header_overhead == len(encoded) - packet.payload_bytes
        if not fixed:
            elided = sum(
                data.is_data and data.t_st and ed.type is ChunkType.ERROR_DETECTION
                and len(ed.payload) == 12
                and ed == build_ed_chunk(data.c_id, data.t_id, EdPayload.decode(ed.payload))
                for data, ed in zip(packet.chunks, packet.chunks[1:])
            )
            plain = 4 + sum(c.wire_bytes for c in packet.chunks)
            assert len(encoded) == plain - HEADER_BYTES * elided
