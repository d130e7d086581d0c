"""FIG-1: dividing a data stream into multiple PDUs (Figure 1).

Paper artifact: one data stream framed two independent ways — a piece
of data belongs simultaneously to PDU B of type 1 and PDU W of type 2.

Reproduction: build a stream whose TPDU framing (type 1) and external
framing (type 2) are unaligned, then show per-unit membership exactly as
drawn, plus benchmark the framer's throughput.
"""

from __future__ import annotations

from _common import build_stream, make_bytes, print_table, register_bench, scaled
from repro.core.builder import ChunkStreamBuilder


def membership_table(chunks):
    """(unit C.SN, T.ID, X.ID) for every data unit — Figure 1's rows."""
    rows = []
    for chunk in chunks:
        for i in range(chunk.length):
            rows.append((chunk.c.sn + i, chunk.t.ident, chunk.x.ident))
    return rows


def figure1_stream():
    # Type-1 PDUs (TPDUs) every 6 units; type-2 PDUs (frames) of 4 units:
    # boundaries interleave like the A/B/C versus W of Figure 1.
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=6)
    chunks = []
    for frame_id in range(6):
        chunks += builder.add_frame(make_bytes(16, seed=frame_id), frame_id=frame_id)
    return chunks


def test_units_belong_to_both_framings():
    rows = membership_table(figure1_stream())
    # Every unit is labelled at both levels...
    assert all(len(row) == 3 for row in rows)
    # ...and some type-2 PDU spans a type-1 boundary (the W of Figure 1).
    spanning = {
        x_id
        for (_, t1, x1), (_, t2, x2) in zip(rows, rows[1:])
        if x1 == x2 and t1 != t2
        for x_id in (x1,)
    }
    assert spanning, "no external PDU spans a TPDU boundary"


def test_chunk_boundaries_fall_on_either_framing():
    chunks = figure1_stream()
    # A new chunk starts exactly when T.SN or X.SN restarts.
    for chunk in chunks:
        assert chunk.t.sn == 0 or chunk.x.sn == 0


def test_framer_throughput(benchmark):
    def run():
        return build_stream(total_units=4096, tpdu_units=64, frame_units=24)

    chunks = benchmark(run)
    assert sum(c.length for c in chunks) == 4096


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: figure stream shape + a scaled framer pass."""
    chunks = figure1_stream()
    rows = membership_table(chunks)
    total_units = scaled(4096, payload_scale, minimum=512)
    stream = build_stream(total_units=total_units, tpdu_units=64, frame_units=24)
    return {
        "figure.chunks": len(chunks),
        "figure.units": len(rows),
        "framer.units": sum(c.length for c in stream),
        "framer.chunks": len(stream),
    }


def main():
    chunks = figure1_stream()
    rows = [("C.SN", "PDU-type-1 (T.ID)", "PDU-type-2 (X.ID)")]
    rows += membership_table(chunks)[:12]
    print_table("Figure 1 — one stream, two independent framings", rows)
    print("chunks emitted (one per framing-boundary run):")
    for chunk in chunks[:6]:
        print(f"  {chunk.describe()}")


if __name__ == "__main__":
    main()
