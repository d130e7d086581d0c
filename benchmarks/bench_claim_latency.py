"""CLAIM-LAT: buffering before processing increases end-to-end latency.

Paper (Section 1): "Buffering before processing increases end-to-end
latency of data, because of the time that the data are in the buffer."
Section 3.3 ranks the strategies: immediate processing < reordering <
reassembly.

Reproduction: the same chunk traffic crosses the 8-way striped path
with skew (the paper's disorder source); the three host strategies
consume the identical timestamped arrivals.  We report host-added
latency (time a byte sits in host buffers) per strategy and per skew,
and assert the ordering.
"""

from __future__ import annotations

from _common import build_stream, print_table, register_bench, scaled
from repro.core.packet import Packet, pack_chunks
from repro.paper.receiver import (
    ImmediateReceiver,
    ReassembleReceiver,
    ReorderReceiver,
)
from repro.netsim.events import EventLoop
from repro.paper.multipath import aurora_stripe

STRATEGIES = [
    ("immediate", ImmediateReceiver),
    ("reorder", ReorderReceiver),
    ("reassemble", ReassembleReceiver),
]


def timed_arrivals(skew: float, total_units=2048, seed=5):
    """Chunk arrivals (time, chunk) after the striped path."""
    loop = EventLoop()
    arrivals = []

    def deliver(frame):
        for chunk in Packet.decode(frame).chunks:
            arrivals.append((loop.now, chunk))

    channel = aurora_stripe(loop, deliver, paths=8, skew=skew, seed=seed)
    chunks = build_stream(total_units, tpdu_units=128, frame_units=48)
    for packet in pack_chunks(chunks, mtu=1024):
        channel.send(packet.encode())
    loop.run()
    return arrivals


def run_strategy(cls, arrivals):
    receiver = cls()
    last = 0.0
    for time, chunk in arrivals:
        receiver.on_chunk(time, chunk)
        last = time
    receiver.finish(last)
    return receiver


def measure(skews=(0.0, 0.0002, 0.0008)):
    table = []
    for skew in skews:
        arrivals = timed_arrivals(skew)
        row = {"skew_us": skew * 1e6}
        for name, cls in STRATEGIES:
            receiver = run_strategy(cls, arrivals)
            row[name] = receiver.mean_added_latency() * 1e6  # microseconds
        table.append(row)
    return table


def test_latency_ordering_holds_at_every_skew():
    for row in measure():
        assert row["immediate"] <= row["reorder"] + 1e-9
        assert row["immediate"] <= row["reassemble"] + 1e-9
        assert row["immediate"] == 0.0


def test_buffering_penalty_grows_with_skew():
    rows = measure(skews=(0.0002, 0.0008))
    assert rows[1]["reorder"] > rows[0]["reorder"]


def test_immediate_strategy_throughput(benchmark):
    arrivals = timed_arrivals(0.0004)
    receiver = benchmark(run_strategy, ImmediateReceiver, arrivals)
    assert receiver.payload_bytes > 0


def test_reassemble_strategy_throughput(benchmark):
    arrivals = timed_arrivals(0.0004)
    receiver = benchmark(run_strategy, ReassembleReceiver, arrivals)
    assert receiver.payload_bytes > 0


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: host-added latency per strategy and skew."""
    total_units = scaled(2048, payload_scale, minimum=256)
    figures: dict[str, object] = {}
    for skew in (0.0, 0.0008):
        arrivals = timed_arrivals(skew, total_units=total_units)
        key = f"skew_{skew * 1e6:g}us"
        for name, cls in STRATEGIES:
            receiver = run_strategy(cls, arrivals)
            figures[f"{key}.{name}_latency_us"] = receiver.mean_added_latency() * 1e6
    return figures


def main():
    rows = [("path skew (us)", "immediate (us)", "reorder (us)", "reassemble (us)")]
    for row in measure():
        rows.append(
            (row["skew_us"], row["immediate"], row["reorder"], row["reassemble"])
        )
    print_table(
        "CLAIM-LAT — mean host-added latency per byte, by receiver strategy",
        rows,
    )
    print("paper's claim: immediate processing adds zero buffer residence;")
    print("reorder/reassemble latency grows with network disorder.")


if __name__ == "__main__":
    main()
