"""MICRO: core data-structure and hot-path microbenchmarks.

Timing for the structures everything else stands on — the interval set
behind virtual reassembly, the virtual reassembler itself, the stream
framer, and the Huffman coder — so regressions in the hot paths show up
in ``pytest benchmarks/ --benchmark-only`` next to the protocol-level
numbers.
"""

from __future__ import annotations

import random

from _common import build_stream, make_bytes, register_bench, scaled
from repro.core.fragment import split_to_unit_limit
from repro.paper.huffman import DEFAULT_HEADER_CODE
from repro.core.intervals import IntervalSet
from repro.core.virtual import VirtualReassembler


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: the hot-path structures exercised directly."""
    span = scaled(20_000, payload_scale, minimum=2_000)
    intervals = IntervalSet()
    for start in range(0, span, 10):
        intervals.add(start, start + 10)

    total_units = scaled(4096, payload_scale, minimum=512)
    chunks = build_stream(total_units=total_units, tpdu_units=256, frame_units=96)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, 8)]
    random.Random(5).shuffle(pieces)
    tracker = VirtualReassembler(level="t")
    for piece in pieces:
        tracker.record(piece)

    data = make_bytes(scaled(4096, payload_scale, minimum=512), seed=7)
    packed, bits = DEFAULT_HEADER_CODE.encode(data)
    decoded = DEFAULT_HEADER_CODE.decode(packed, bits)
    return {
        "intervals.covered": intervals.covered(),
        "reassembly.pieces": len(pieces),
        "reassembly.completed": len(tracker.completed_pdus()),
        "huffman.input_bytes": len(data),
        "huffman.encoded_bits": bits,
        "huffman.roundtrip_ok": int(decoded == data),
    }


def test_interval_set_sequential_adds(benchmark):
    def run():
        intervals = IntervalSet()
        for start in range(0, 20_000, 10):
            intervals.add(start, start + 10)
        return intervals

    intervals = benchmark(run)
    assert intervals.covered() == 20_000


def test_interval_set_random_adds(benchmark):
    rng = random.Random(3)
    ranges = [
        (start, start + rng.randrange(1, 30))
        for start in (rng.randrange(0, 50_000) for _ in range(2_000))
    ]

    def run():
        intervals = IntervalSet()
        for start, end in ranges:
            intervals.add(start, end)
        return intervals

    intervals = benchmark(run)
    assert intervals.covered() > 0


def test_interval_set_queries(benchmark):
    intervals = IntervalSet()
    for start in range(0, 100_000, 20):
        intervals.add(start, start + 10)

    def run():
        hits = 0
        for start in range(0, 100_000, 37):
            if intervals.contains(start, start + 5):
                hits += 1
        return hits

    assert benchmark(run) >= 0


def test_virtual_reassembly_disordered(benchmark):
    chunks = build_stream(total_units=4096, tpdu_units=256, frame_units=96)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, 8)]
    random.Random(5).shuffle(pieces)

    def run():
        tracker = VirtualReassembler(level="t")
        for piece in pieces:
            tracker.record(piece)
        return tracker

    tracker = benchmark(run)
    # 16 TPDUs; the final one lacks T.ST while the stream stays open.
    assert len(tracker.completed_pdus()) >= 15


def test_huffman_encode(benchmark):
    data = make_bytes(4096, seed=7)
    packed, bits = benchmark(DEFAULT_HEADER_CODE.encode, data)
    assert bits > 0


def test_huffman_decode(benchmark):
    data = make_bytes(4096, seed=7)
    packed, bits = DEFAULT_HEADER_CODE.encode(data)
    out = benchmark(DEFAULT_HEADER_CODE.decode, packed, bits)
    assert out == data
