"""Property suite: the WSC-2 TPDU invariant under re-fragmentation.

Section 4's claim is that the error-detection code is computed on "an
invariant of the TPDU under chunk fragmentation": however the network
splits, coalesces, or reorders a TPDU's chunks, sender and receiver
accumulate exactly the same (P0, P1) pair.  The suite also pins the
algebraic property underneath — the accumulator is a homomorphism, so
any partition of the symbol stream into runs, accumulated in any order
across any number of accumulators and combined, equals the one-shot
in-order encoding — and the byte-run kernel the transport runs
(``add_bytes``: big-integer lane folds, position as a shift, one CRC-32
reduction) equals the bit-serial definition (``add_run``) on every run,
start and tail, on both sides of the start where the shift stops.
"""

from __future__ import annotations

import random
import tracemalloc

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.fragment import split_to_unit_limit
from repro.core.reassemble import coalesce
from repro.wsc import wsc2 as wsc2_module
from repro.wsc.invariant import encode_tpdu
from repro.wsc.wsc2 import (
    MAX_POSITIONS,
    Wsc2Accumulator,
    symbols_from_bytes,
    wsc2_encode,
)
from tests.helpers import deterministic_bytes, make_payload


@st.composite
def complete_tpdus(draw) -> list[Chunk]:
    """The DATA chunks of exactly one complete TPDU (T.ST seen)."""
    total_units = draw(st.integers(1, 24))
    # Partition the TPDU's units into 1..4 external PDUs.
    cuts = sorted(draw(st.sets(st.integers(1, max(1, total_units - 1)), max_size=3)))
    bounds = [0, *cuts, total_units]
    builder = ChunkStreamBuilder(
        connection_id=draw(st.integers(0, 255)), tpdu_units=total_units
    )
    chunks: list[Chunk] = []
    for frame_id, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi == lo:
            continue
        chunks += builder.add_frame(
            make_payload(hi - lo, 1, seed=frame_id + 1), frame_id=frame_id
        )
    return [c for c in chunks if c.t.ident == 0]


@given(complete_tpdus(), st.integers(1, 5), st.integers(0, 2**32))
def test_encode_tpdu_invariant_under_fragmentation(tpdu, limit, shuffle_seed):
    """Sender parities computed over fragments == over the originals."""
    pieces = [p for chunk in tpdu for p in split_to_unit_limit(chunk, limit)]
    random.Random(shuffle_seed).shuffle(pieces)
    reference, _ = encode_tpdu(tpdu)
    fragmented, _ = encode_tpdu(pieces)
    assert fragmented == reference


@given(complete_tpdus(), st.integers(1, 5), st.integers(0, 2**32))
def test_encode_tpdu_invariant_under_coalescing(tpdu, limit, shuffle_seed):
    """Fragment, shuffle, then in-network reassemble (Appendix D): the
    receiver-side coalesced view still encodes identically."""
    pieces = [p for chunk in tpdu for p in split_to_unit_limit(chunk, limit)]
    random.Random(shuffle_seed).shuffle(pieces)
    merged = [c for c in coalesce(pieces) if not c.is_control]
    reference, _ = encode_tpdu(tpdu)
    recombined, _ = encode_tpdu(merged)
    assert recombined == reference


@st.composite
def symbol_partitions(draw):
    symbols = draw(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64)
    )
    n = len(symbols)
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=7)))
    bounds = [0, *(c for c in cuts if c < n), n]
    runs = [
        (lo, symbols[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    return symbols, runs


@given(symbol_partitions(), st.integers(0, 2**32), st.integers(1, 4))
def test_accumulator_partition_shuffle_combine(partition, shuffle_seed, n_accs):
    """Any run partition, distributed over any number of accumulators in
    any order, combines to the one-shot in-order encoding."""
    symbols, runs = partition
    random.Random(shuffle_seed).shuffle(runs)
    accumulators = [Wsc2Accumulator() for _ in range(n_accs)]
    for index, (start, values) in enumerate(runs):
        accumulators[index % n_accs].add_run(start, values)
    combined = accumulators[0]
    for other in accumulators[1:]:
        combined.combine(other)
    assert combined.value() == wsc2_encode(symbols)


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=32),
       st.integers(0, 2**20))
def test_accumulator_position_shift(symbols, start):
    """Symbol-at-a-time accumulation at any base equals add_run there."""
    one_shot = Wsc2Accumulator()
    one_shot.add_run(start, symbols)
    stepwise = Wsc2Accumulator()
    for offset, value in enumerate(symbols):
        stepwise.add_symbol(start + offset, value)
    assert stepwise.value() == one_shot.value()


def _block_edge_examples(test):
    """Force runs of 1x, 2x and 4x the fold block, +-1 symbol, aligned and
    not, at the position budget's edge and off it."""
    for multiple in (1, 2, 4):
        for delta in (-4, -1, 0, 1, 4):
            size = 4 * wsc2_module._BLOCK * multiple + delta
            test = example(
                data=deterministic_bytes(size, seed=size),
                start=MAX_POSITIONS if delta else multiple,
                wrap=(bytes, bytearray, memoryview)[multiple % 3],
                cut=wsc2_module._BLOCK * multiple + delta,
            )(test)
    return test


def _shift_threshold_examples(test):
    """Force starts around the first position whose high part goes
    through ``alpha_pow`` (and around multiples of it), and runs that begin
    below it and end above, cut on either side of it."""
    threshold = wsc2_module._SHIFT_MASK + 1
    for multiple in (1, 2, 5):
        for delta in (-1, 0, 1):
            test = example(
                data=deterministic_bytes(260 + delta, seed=multiple),
                start=threshold * multiple + delta,
                wrap=(bytes, bytearray, memoryview)[delta],
                cut=33,
            )(test)
    for cut in (10, 30, 31, 50):  # the tail starts at threshold - 20 .. + 20
        test = example(
            data=deterministic_bytes(258, seed=cut),
            start=threshold - 30,
            wrap=memoryview,
            cut=cut,
        )(test)
    return test


@_shift_threshold_examples
@_block_edge_examples
@given(
    data=st.binary(max_size=5000),
    start=st.integers(0, MAX_POSITIONS),
    wrap=st.sampled_from([bytes, bytearray, memoryview]),
    cut=st.integers(0, 1 << 16),
)
def test_byte_kernel_equals_symbol_oracle(data, start, wrap, cut):
    """add_bytes == add_run(symbols_from_bytes), whole and split in two."""
    count = -(-len(data) // 4)
    start = min(start, MAX_POSITIONS - count)  # up to the budget's edge
    oracle = Wsc2Accumulator()
    oracle.add_run(start, symbols_from_bytes(data))
    kernel = Wsc2Accumulator()
    kernel.add_bytes(start, wrap(data))
    assert kernel.value() == oracle.value()

    cut %= count + 1
    head, tail = Wsc2Accumulator(), Wsc2Accumulator()
    head.add_bytes(start, wrap(data[: 4 * cut]))
    tail.add_bytes(start + cut, wrap(data[4 * cut :]))
    head.combine(tail)
    assert head.value() == oracle.value()


def test_byte_kernel_at_the_budget_edge_stays_small():
    """``H << start`` taken literally is a 64 MiB integer at the edge of
    the position budget (264 MiB of temporaries, a second per call); the
    kernel shifts by the low bits of *start* only."""
    data = deterministic_bytes(260, seed=3)
    start = MAX_POSITIONS - 65
    oracle = Wsc2Accumulator()
    oracle.add_run(start, symbols_from_bytes(data))
    kernel = Wsc2Accumulator()
    tracemalloc.start()
    try:
        kernel.add_bytes(start, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.value() == oracle.value()
    assert peak < 64 * 1024
