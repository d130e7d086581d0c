"""FIG-7: deriving an implicit T.ID (Figure 7) and Appendix A compression.

Paper artifact: "The value of (C.SN − T.SN) is identical for each chunk
of a TPDU, and this difference can be used in place of an explicit
T.ID field."

Reproduction: allocate TPDU ids by the Figure 7 rule, show the derived
values, and measure the header-size reduction of each Appendix A
transform stack (the bandwidth-efficiency series the appendix argues
for), plus codec throughput for fixed vs compact headers.
"""

from __future__ import annotations

from _common import make_bytes, print_table, register_bench, scaled
from repro.core.builder import ChunkStreamBuilder
from repro.core.codec import encode_chunk
from repro.paper.compress import (
    CompressionProfile,
    HeaderCompressor,
    HeaderDecompressor,
    implicit_tpdu_ids,
)
from repro.core.types import ChunkType


def stream_with_implicit_ids(frames=16, frame_units=24, tpdu_units=32):
    builder = ChunkStreamBuilder(connection_id=42, tpdu_units=tpdu_units)
    chunks = []
    for i in range(frames):
        chunks += builder.add_frame(make_bytes(frame_units * 4, seed=i), frame_id=i)
    return implicit_tpdu_ids(chunks)


PROFILES = [
    ("fixed 44-byte headers", None),
    ("varint headers only", CompressionProfile()),
    ("+ SIZE by signaling", CompressionProfile(size_by_type={ChunkType.DATA: 1})),
    (
        "+ C.ID by signaling",
        CompressionProfile(size_by_type={ChunkType.DATA: 1}, connection_id=42),
    ),
    (
        "+ implicit T.ID (Fig 7)",
        CompressionProfile(
            size_by_type={ChunkType.DATA: 1}, connection_id=42, implicit_t_id=True
        ),
    ),
    (
        "+ SN regeneration",
        CompressionProfile(
            size_by_type={ChunkType.DATA: 1},
            connection_id=42,
            implicit_t_id=True,
            regenerate_sns=True,
        ),
    ),
]


def header_bytes(chunks, profile):
    payload = sum(c.payload_bytes for c in chunks)
    if profile is None:
        total = sum(len(encode_chunk(c)) for c in chunks)
    else:
        compressor = HeaderCompressor(profile)
        total = sum(len(compressor.encode(c)) for c in chunks)
    return total - payload


def header_bytes_huffman(chunks, profile):
    """Packet-scope: compact headers + the static Huffman code."""
    from repro.paper.packetcomp import CompressedPacketCodec

    payload = sum(c.payload_bytes for c in chunks)
    codec = CompressedPacketCodec(profile)
    return len(codec.encode(chunks)) - payload


def test_figure7_rule_holds():
    chunks = stream_with_implicit_ids()
    for chunk in chunks:
        assert chunk.t.ident == chunk.c.sn - chunk.t.sn


def test_huffman_packet_scope_beats_plain_varints():
    chunks = stream_with_implicit_ids()
    profile = PROFILES[-2][1]  # signaling + implicit T.ID, SNs explicit
    plain = header_bytes(chunks, profile)
    huffman = header_bytes_huffman(chunks, profile)
    assert huffman < plain
    # And it round-trips exactly.
    from repro.paper.packetcomp import CompressedPacketCodec

    codec = CompressedPacketCodec(profile)
    assert codec.decode(codec.encode(chunks)) == chunks


def test_compression_is_monotone_and_lossless():
    chunks = stream_with_implicit_ids()
    sizes = [header_bytes(chunks, profile) for _, profile in PROFILES]
    assert all(a >= b for a, b in zip(sizes, sizes[1:])), sizes
    assert sizes[-1] < sizes[0] / 4  # the full stack saves > 4x header bytes
    # Losslessness of the full stack.
    profile = PROFILES[-1][1]
    compressor = HeaderCompressor(profile)
    decompressor = HeaderDecompressor(profile)
    blob = b"".join(compressor.encode(c) for c in chunks)
    offset, out = 0, []
    while offset < len(blob):
        chunk, offset = decompressor.decode(blob, offset)
        out.append(chunk)
    assert out == chunks


def test_fixed_codec_throughput(benchmark):
    chunks = stream_with_implicit_ids(frames=64)
    total = benchmark(lambda: sum(len(encode_chunk(c)) for c in chunks))
    assert total > 0


def test_compact_codec_throughput(benchmark):
    chunks = stream_with_implicit_ids(frames=64)
    profile = PROFILES[-1][1]

    def run():
        compressor = HeaderCompressor(profile)
        return sum(len(compressor.encode(c)) for c in chunks)

    total = benchmark(run)
    assert total > 0


PROFILE_SLUGS = (
    "fixed",
    "varint",
    "size_signal",
    "cid_signal",
    "implicit_tid",
    "sn_regen",
)


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: header bytes for each Appendix-A transform stack."""
    frames = scaled(16, payload_scale, minimum=4)
    chunks = stream_with_implicit_ids(frames=frames)
    figures: dict[str, object] = {"frames": frames}
    for slug, (_name, profile) in zip(PROFILE_SLUGS, PROFILES):
        figures[f"{slug}.header_bytes"] = header_bytes(chunks, profile)
    figures["huffman.header_bytes"] = header_bytes_huffman(chunks, PROFILES[-2][1])
    return figures


def main():
    chunks = stream_with_implicit_ids()
    rows = [("chunk", "C.SN", "T.SN", "T.ID = C.SN - T.SN")]
    for index, chunk in enumerate(chunks[:6]):
        rows.append((index, chunk.c.sn, chunk.t.sn, chunk.t.ident))
    print_table("Figure 7 — implicit T.ID derivation", rows)

    payload = sum(c.payload_bytes for c in chunks)
    rows = [("transform stack (Appendix A)", "header bytes", "of payload %")]
    for name, profile in PROFILES:
        size = header_bytes(chunks, profile)
        rows.append((name, size, 100 * size / payload))
    huffman_size = header_bytes_huffman(chunks, PROFILES[-2][1])
    rows.append(
        ("+ packet-scope Huffman coding", huffman_size, 100 * huffman_size / payload)
    )
    print_table("Appendix A — invertible header compression", rows)


if __name__ == "__main__":
    main()
