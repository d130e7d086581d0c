"""CLAIM-OVERHEAD: bytes-on-the-wire overhead across systems and MTUs.

Paper (Sections 1, 3.2, Appendix A): placing every PDU's control
overhead in every packet (the XTP no-fragmentation approach) is
inefficient on small-MTU paths; fragmentation spreads PDU overhead
across packets; chunks match that while staying processable out of
order, and Appendix A compression shrinks chunk headers further.

Reproduction: carry the same 64 KiB object (the paper's supercomputer
block, footnote 6) over a sweep of MTUs under: IP fragmentation,
XTP MTU-sized TPDUs, plain chunks, and compressed chunks.  Report
non-payload bytes as a percentage of payload; assert the ordering
IP < compressed chunks < plain chunks < XTP on small MTUs.
"""

from __future__ import annotations

from _common import make_bytes, print_table, register_bench
from repro.paper.ipfrag import fragment_datagram
from repro.paper.xtp import packetize
from repro.core.builder import ChunkStreamBuilder
from repro.paper.compress import CompressionProfile, HeaderCompressor, implicit_tpdu_ids
from repro.core.packet import pack_chunks
from repro.core.types import PACKET_HEADER_BYTES, ChunkType
from repro.wsc.invariant import encode_tpdu

OBJECT_BYTES = 64 * 1024   # the Cray TCP segment size of [BORM 89]
TPDU_UNITS = 4096          # 16 KiB TPDUs
MTUS = (9180, 1500, 576, 296)
#: SIZE and C.ID by signaling, T.ID implicit (Figure 7); SNs stay explicit.
PROFILE = CompressionProfile(
    size_by_type={ChunkType.DATA: 1, ChunkType.ERROR_DETECTION: 1, ChunkType.SIGNALING: 1},
    connection_id=5,
    implicit_t_id=True,
)


def chunk_traffic():
    builder = ChunkStreamBuilder(connection_id=5, tpdu_units=TPDU_UNITS)
    payload = make_bytes(OBJECT_BYTES, seed=1)
    chunks = []
    step = TPDU_UNITS * 4
    for frame_id, offset in enumerate(range(0, OBJECT_BYTES, step)):
        frame_chunks = implicit_tpdu_ids(
            builder.add_frame(payload[offset : offset + step], frame_id=frame_id)
        )
        chunks += frame_chunks
        chunks.append(encode_tpdu([c for c in frame_chunks if c.t.ident == frame_chunks[0].t.ident])[1])
    return chunks


def wire_bytes_ip(mtu: int) -> int:
    payload = make_bytes(OBJECT_BYTES, seed=1)
    total = 0
    step = TPDU_UNITS * 4
    for ident, offset in enumerate(range(0, OBJECT_BYTES, step)):
        for fragment in fragment_datagram(ident, payload[offset : offset + step], mtu):
            total += fragment.wire_bytes
    return total


def wire_bytes_xtp(mtu: int) -> int:
    payload = make_bytes(OBJECT_BYTES, seed=1)
    return sum(p.wire_bytes for p in packetize(1, payload, mtu))


def wire_bytes_chunks(mtu: int) -> int:
    chunks = chunk_traffic()
    return sum(p.wire_bytes for p in pack_chunks(chunks, mtu))


def wire_bytes_chunks_compressed(mtu: int) -> int:
    chunks = chunk_traffic()
    total = 0
    # Compact headers; fragment first so every piece fits the MTU.
    for packet in pack_chunks(chunks, mtu):
        compressor = HeaderCompressor(PROFILE)
        body = sum(len(compressor.encode(c)) for c in packet.chunks)
        total += PACKET_HEADER_BYTES + body
    return total


SYSTEMS = [
    ("IP fragmentation", wire_bytes_ip),
    ("chunks (compressed)", wire_bytes_chunks_compressed),
    ("chunks (fixed headers)", wire_bytes_chunks),
    ("XTP MTU-sized TPDUs", wire_bytes_xtp),
]


def overhead_pct(total: int) -> float:
    return 100 * (total - OBJECT_BYTES) / OBJECT_BYTES


def test_small_mtu_ordering():
    mtu = 296
    values = [overhead_pct(fn(mtu)) for _, fn in SYSTEMS]
    ip, comp, plain, xtp = values
    # Appendix A compression is a large win over fixed headers...
    assert comp < plain / 2
    # ...and a compact chunk header (~13 bytes) undercuts even the
    # 20-byte IP header, while staying processable out of order.
    assert comp < ip
    # Uncompressed 44-byte chunk headers land in XTP territory — both
    # pay full labelling in every packet — and both are far above IP.
    assert plain > 2 * ip and xtp > 2 * ip
    assert abs(plain - xtp) < max(plain, xtp) * 0.3


def test_compressed_chunks_track_ip_at_every_mtu():
    """Appendix A compression keeps chunk overhead within ~2 percentage
    points of raw IP fragmentation across the MTU sweep, while the
    fixed-header encoding drifts to >12 points at small MTUs."""
    for mtu in MTUS:
        ip = overhead_pct(wire_bytes_ip(mtu))
        comp = overhead_pct(wire_bytes_chunks_compressed(mtu))
        plain = overhead_pct(wire_bytes_chunks(mtu))
        assert abs(comp - ip) < 2.0, (mtu, ip, comp)
        if mtu <= 576:
            assert plain - ip > 2.0, (mtu, ip, plain)


def test_overhead_grows_as_mtu_shrinks():
    for _, fn in SYSTEMS:
        values = [overhead_pct(fn(mtu)) for mtu in MTUS]
        assert values == sorted(values), values


def test_chunk_packing_throughput(benchmark):
    chunks = chunk_traffic()
    packets = benchmark(pack_chunks, chunks, 576)
    assert packets


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: overhead % per system at the sweep's ends."""
    figures: dict[str, object] = {}
    for mtu in (1500, 296):
        for name, fn in SYSTEMS:
            slug = name.split(" ")[0].strip("()").lower()
            if "compressed" in name:
                slug = "chunks_compressed"
            elif "fixed" in name:
                slug = "chunks_fixed"
            figures[f"mtu_{mtu}.{slug}_overhead_pct"] = overhead_pct(fn(mtu))
    return figures


def main():
    rows = [("system", *[f"MTU {mtu}" for mtu in MTUS])]
    for name, fn in SYSTEMS:
        rows.append((name, *[overhead_pct(fn(mtu)) for mtu in MTUS]))
    print_table(
        f"CLAIM-OVERHEAD — header overhead % carrying {OBJECT_BYTES // 1024} KiB "
        f"({TPDU_UNITS * 4 // 1024} KiB TPDUs)",
        rows,
    )
    print("paper's claims: XTP-style per-packet PDU overhead is the most")
    print("expensive on small MTUs; chunks sit between IP fragmentation and")
    print("XTP, and Appendix A compression closes most of the gap to IP —")
    print("while remaining processable out of order, which IP fragments are not.")


if __name__ == "__main__":
    main()
