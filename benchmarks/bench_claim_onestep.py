"""CLAIM-1STEP: single-step reassembly regardless of fragmentation depth.

Paper (Sections 3.1, Summary): "Chunks can be reassembled efficiently in
one step, regardless of how many times they've been fragmented.
Conventional protocols require a reassembly step for each fragmentation
step" (e.g. re-fragmenting XTP requires full re-packetization at every
boundary, and staged tunnels reassemble at each exit).

Reproduction: push the same payload through 1..5 fragmentation stages.
For chunks, the receiver always performs exactly one coalesce pass and
its cost stays flat.  For the staged conventional baseline (reassemble
at every network exit, as intra-network fragmentation requires), the
number of reassembly passes — and the bytes written through reassembly
buffers — grows linearly with stage count.
"""

from __future__ import annotations

import random
import time

from _common import make_chunk, print_table, register_bench
from repro.paper.ipfrag import IpReassembler, fragment_datagram, refragment
from repro.core.fragment import split_to_unit_limit
from repro.core.reassemble import coalesce



PAYLOAD_UNITS = 2048
STAGE_LIMITS = [256, 128, 64, 32, 16]


def chunk_pieces_after(stages: int):
    chunk = make_chunk(units=PAYLOAD_UNITS, t_st=True)
    pieces = [chunk]
    for limit in STAGE_LIMITS[:stages]:
        pieces = [p for c in pieces for p in split_to_unit_limit(c, limit)]
    random.Random(stages).shuffle(pieces)
    return chunk, pieces


def chunk_receiver_work(stages: int):
    """One coalesce pass; returns (pieces_in, merge_operations)."""
    chunk, pieces = chunk_pieces_after(stages)
    merged = coalesce(pieces)
    assert merged == [chunk]
    return len(pieces), len(pieces) - len(merged)


def staged_ip_work(stages: int):
    """Intra-network fragmentation: reassemble at each network exit.

    Returns (reassembly_passes, total_bytes_buffered) — each stage's
    exit gateway buffers the full payload again.
    """
    payload = bytes(PAYLOAD_UNITS * 4)
    fragments = fragment_datagram(1, payload, mtu=STAGE_LIMITS[0] * 4 + 20)
    passes = 0
    buffered = 0
    for limit in STAGE_LIMITS[1 : stages + 1]:
        # Entering the next network: fragment further...
        fragments = [p for f in fragments for p in refragment(f, limit * 4 + 20)]
        # ...and this network's exit reassembles (a pass over the payload).
        reasm = IpReassembler(capacity_bytes=10 * len(payload))
        done = None
        for fragment in fragments:
            out = reasm.add_fragment(fragment)
            if out is not None:
                done = out
        assert done == payload
        passes += 1
        buffered += len(payload)
        fragments = fragment_datagram(1, done, mtu=limit * 4 + 20)
    return passes, buffered


def test_chunk_reassembly_is_one_step_at_any_depth():
    for stages in range(1, 6):
        pieces, merges = chunk_receiver_work(stages)
        # One pass, whatever the depth; the pass count is the claim.
        assert merges == pieces - 1


def test_staged_baseline_passes_grow_linearly():
    passes = [staged_ip_work(stages)[0] for stages in (1, 2, 3, 4)]
    assert passes == [1, 2, 3, 4]


def test_chunk_receiver_cost_flat_in_stage_count():
    """Receiver-side wall time depends on the final piece count, not on
    how many stages produced it: compare equal-final-granularity pools
    reached via 1 stage vs 5 stages."""
    final_limit = STAGE_LIMITS[-1]
    chunk = make_chunk(units=PAYLOAD_UNITS, t_st=True)
    one_stage = split_to_unit_limit(chunk, final_limit)
    _, five_stage = chunk_pieces_after(5)
    assert len(one_stage) == len(five_stage)

    def cost(pieces):
        pool = list(pieces)
        random.Random(1).shuffle(pool)
        started = time.perf_counter()
        for _ in range(5):
            assert coalesce(pool) == [chunk]
        return time.perf_counter() - started

    direct, staged = cost(one_stage), cost(five_stage)
    assert staged < direct * 2.5  # flat, modulo timer noise


def test_coalesce_throughput(benchmark):
    _, pieces = chunk_pieces_after(5)
    merged = benchmark(coalesce, pieces)
    assert len(merged) == 1


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: reassembly work vs fragmentation depth."""
    figures: dict[str, object] = {}
    for stages in (1, 5):
        pieces, merges = chunk_receiver_work(stages)
        figures[f"stages_{stages}.chunk_pieces"] = pieces
        figures[f"stages_{stages}.chunk_merges"] = merges
        figures[f"stages_{stages}.chunk_passes"] = 1
    passes, buffered = staged_ip_work(3)
    figures["staged_ip.passes"] = passes
    figures["staged_ip.bytes_buffered"] = buffered
    return figures


def main():
    payload_bytes = PAYLOAD_UNITS * 4
    rows = [("fragmentation stages", "chunk passes (total)",
             "chunk pieces at receiver", "staged-IP passes (total)",
             "staged-IP bytes through buffers")]
    for stages in range(1, 6):
        pieces, _ = chunk_receiver_work(stages)
        in_network_passes, in_network_buffered = (
            staged_ip_work(stages - 1) if stages > 1 else (0, 0)
        )
        rows.append(
            (
                stages,
                1,  # the receiver's single coalesce, at any depth
                pieces,
                in_network_passes + 1,  # exits + the final receiver
                in_network_buffered + payload_bytes,
            )
        )
    print_table("CLAIM-1STEP — reassembly work vs fragmentation depth", rows)
    print("paper's claim: chunks -> one reassembly step at any depth;")
    print("per-network (intra-network) fragmentation -> one pass per stage.")


if __name__ == "__main__":
    main()
