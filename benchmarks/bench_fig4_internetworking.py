"""FIG-4: using chunks for internetworking (Figure 4).

Paper artifact: chunks crossing a small-packet network into a
large-packet network, handled three ways — one chunk per packet
(method 1), repacked (method 2), reassembled (method 3) — all
transparent to the receiver.

Reproduction: run the same traffic over a big->small->big MTU path with
a chunk router per boundary in each mode; report packets and header
overhead per mode, assert the paper's ordering (method 3 <= method 2 <
method 1 in packets/bytes on the big network), and benchmark the three
repacking primitives.
"""

from __future__ import annotations

import pytest

from _common import build_stream, make_bytes, print_table, register_bench
from repro.core.packet import (
    pack_chunks,
    repack,
    repack_one_per_packet,
    repack_with_reassembly,
)
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec, build_chunk_path
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

MODES = ("one-per-packet", "repack", "reassemble")


def run_mode(mode: str) -> dict:
    loop = EventLoop()
    receiver = ChunkTransportReceiver()
    path = build_chunk_path(
        loop,
        [HopSpec(mtu=4096), HopSpec(mtu=296), HopSpec(mtu=4096)],
        lambda frame: receiver.receive_packet(frame),
        mode=mode,
        batch_window=0.0005,
    )
    sender = ChunkTransportSender(ConnectionConfig(connection_id=2, tpdu_units=512))
    payload = make_bytes(16 * 1024, seed=3)
    chunks = [sender.establishment_chunk()] + sender.close(payload)
    for packet in pack_chunks(chunks, 4096):
        path.send(packet.encode())
    path.run()
    assert receiver.stream_bytes() == payload
    assert receiver.corrupted_tpdus() == 0
    big_link = path.links[-1]
    return {
        "mode": mode,
        "big_net_packets": big_link.stats.frames_delivered,
        "big_net_bytes": big_link.stats.bytes_delivered,
        "overhead_pct": 100 * (big_link.stats.bytes_delivered - len(payload)) / len(payload),
    }


def test_all_modes_transparent_and_ordered():
    results = {mode: run_mode(mode) for mode in MODES}
    assert (
        results["reassemble"]["big_net_packets"]
        <= results["repack"]["big_net_packets"]
        < results["one-per-packet"]["big_net_packets"]
    )
    assert (
        results["reassemble"]["big_net_bytes"]
        <= results["repack"]["big_net_bytes"]
        <= results["one-per-packet"]["big_net_bytes"]
    )


@pytest.fixture(scope="module")
def small_packets():
    chunks = build_stream(total_units=2048, tpdu_units=256, frame_units=96)
    return pack_chunks(chunks, 296)


def test_method1_throughput(benchmark, small_packets):
    out = benchmark(repack_one_per_packet, small_packets, 4096)
    assert out


def test_method2_throughput(benchmark, small_packets):
    out = benchmark(repack, small_packets, 4096)
    assert out


def test_method3_throughput(benchmark, small_packets):
    out = benchmark(repack_with_reassembly, small_packets, 4096)
    assert out


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: all three Figure-4 modes over the router path."""
    figures: dict[str, object] = {}
    for mode in MODES:
        result = run_mode(mode)
        slug = mode.replace("-", "_")
        figures[f"{slug}.big_net_packets"] = result["big_net_packets"]
        figures[f"{slug}.big_net_bytes"] = result["big_net_bytes"]
        figures[f"{slug}.overhead_pct"] = result["overhead_pct"]
    return figures


def main():
    rows = [("mode (Figure 4)", "big-net packets", "big-net bytes", "overhead %")]
    for mode in MODES:
        result = run_mode(mode)
        rows.append(
            (
                result["mode"],
                result["big_net_packets"],
                result["big_net_bytes"],
                result["overhead_pct"],
            )
        )
    print_table("Figure 4 — fragmented / repacked / reassembled", rows)
    print("every mode delivered a byte-exact, fully verified stream.")


if __name__ == "__main__":
    main()
