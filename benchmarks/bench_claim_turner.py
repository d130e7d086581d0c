"""CLAIM-TURNER: drop all fragments of a TPDU once any is dropped (§3).

Paper: "if fragments travel along the same route, we have the option of
dropping all of the fragments of a TPDU if any fragment must be dropped,
a technique suggested by Turner [TURN 92]."  Chunks make the policy easy
to implement in a queue: the (C.ID, T.ID) labels are right in every
fragment's header, so the bottleneck can identify doomed TPDUs without
any per-flow state from the endpoints.

Reproduction: stripe the fragments of many TPDUs through a bottleneck
queue at increasing overload.  Compare plain tail drop with the Turner
policy on (a) useless bytes forwarded downstream (fragments of TPDUs
that can no longer complete) and (b) complete TPDUs delivered.
"""

from __future__ import annotations

from _common import make_bytes, print_table, register_bench
from repro.core.builder import ChunkStreamBuilder
from repro.core.errors import CodecError
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import Packet, pack_chunks
from repro.core.reassemble import coalesce
from repro.netsim.events import EventLoop
from repro.paper.turner import BottleneckQueue

TPDUS = 24
TPDU_UNITS = 128
MTU = 128


def striped_frames():
    """Frames of TPDUS TPDUs, round-robin interleaved."""
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=TPDU_UNITS)
    per_tpdu = []
    for index in range(TPDUS):
        chunks = builder.add_frame(make_bytes(TPDU_UNITS * 4, seed=index), frame_id=index)
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 16)]
        per_tpdu.append([p.encode() for p in pack_chunks(pieces, MTU)])
    longest = max(len(f) for f in per_tpdu)
    stream = []
    for round_index in range(longest):
        for frames in per_tpdu:
            if round_index < len(frames):
                stream.append(frames[round_index])
    return stream


def complete_tpdus(delivered):
    chunks = []
    for frame in delivered:
        try:
            chunks.extend(Packet.decode(frame).chunks)
        except CodecError:
            continue
    done = set()
    for merged in coalesce(chunks):
        if merged.is_data and merged.t.sn == 0 and merged.t.st:
            done.add(merged.t.ident)
    return done


def useless_bytes(delivered, done):
    total = 0
    for frame in delivered:
        for chunk in Packet.decode(frame).chunks:
            if chunk.is_data and chunk.t.ident not in done:
                total += chunk.payload_bytes
    return total


def run(policy: str, overload: float):
    """Offered load = overload x drain rate."""
    loop = EventLoop()
    delivered = []
    queue = BottleneckQueue(
        loop, delivered.append, rate_bps=2e6, depth_frames=6, policy=policy
    )
    frames = striped_frames()
    drain_time = MTU * 8 / queue.rate_bps
    interval = drain_time / overload
    for index, frame in enumerate(frames):
        loop.at(index * interval, lambda f=frame: queue.send(f))
    loop.run()
    done = complete_tpdus(delivered)
    return {
        "complete": len(done),
        "useless_bytes": useless_bytes(delivered, done),
        "forwarded_bytes": queue.stats.bytes_forwarded,
        "saved_bytes": queue.stats.bytes_saved_by_turner,
    }


def test_turner_reduces_useless_bytes_under_overload():
    for overload in (1.3, 1.6):
        plain = run("random", overload)
        turner = run("turner", overload)
        assert turner["useless_bytes"] <= plain["useless_bytes"]
    heavy_plain = run("random", 1.6)
    heavy_turner = run("turner", 1.6)
    assert heavy_turner["useless_bytes"] < heavy_plain["useless_bytes"]


def test_turner_does_not_hurt_completions():
    for overload in (1.3, 1.6):
        plain = run("random", overload)
        turner = run("turner", overload)
        assert turner["complete"] >= plain["complete"]


def test_no_overload_no_difference():
    plain = run("random", 0.9)
    turner = run("turner", 0.9)
    assert plain["complete"] == turner["complete"] == TPDUS
    assert turner["saved_bytes"] == 0


def test_queue_throughput(benchmark):
    frames = striped_frames()

    def go():
        loop = EventLoop()
        delivered = []
        queue = BottleneckQueue(
            loop, delivered.append, rate_bps=1e9, depth_frames=10**6,
            policy="turner",
        )
        for frame in frames:
            queue.send(frame)
        loop.run()
        return delivered

    delivered = benchmark(go)
    assert len(delivered) == len(frames)


@register_bench
def run_bench(payload_scale: float = 1.0) -> dict:
    """Perf entry point: both policies at 1.4x overload."""
    figures: dict[str, object] = {}
    for policy in ("random", "turner"):
        result = run(policy, 1.4)
        figures[f"{policy}.complete"] = result["complete"]
        figures[f"{policy}.useless_bytes"] = result["useless_bytes"]
        figures[f"{policy}.saved_bytes"] = result["saved_bytes"]
    return figures


def main():
    rows = [("offered load", "policy", "complete TPDUs", "useless bytes fwd",
             "bytes saved at queue")]
    for overload in (0.9, 1.2, 1.4, 1.8):
        for policy in ("random", "turner"):
            result = run(policy, overload)
            rows.append(
                (f"{overload:.1f}x", policy, result["complete"],
                 result["useless_bytes"], result["saved_bytes"])
            )
    print_table(
        f"CLAIM-TURNER — bottleneck drop policy, {TPDUS} striped TPDUs",
        rows,
    )
    print("paper's claim: once one fragment is gone the rest are dead weight;")
    print("chunk labels let the queue drop them, sparing capacity for TPDUs")
    print("that can still complete.")


if __name__ == "__main__":
    main()
