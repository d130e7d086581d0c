"""ABL: ablations of this implementation's own design choices.

DESIGN.md calls out several knobs the paper leaves open; these studies
quantify each so downstream users know what they cost:

1. **Router batch window** — Figure 4's combining modes only pay off
   across packets if the router briefly holds chunks; the window trades
   added latency for fewer, fuller envelopes.
2. **TPDU size vs. ED overhead** — each TPDU costs one ED chunk (~56
   wire bytes); small TPDUs detect errors at finer grain but pay
   proportionally more parity overhead.
3. **Atomic-unit SIZE vs. fragmentation granularity** — larger SIZE
   (e.g. 2 words for cipher blocks) constrains where routers may cut,
   wasting MTU tail space.
"""

from __future__ import annotations

from _common import make_bytes, print_table, register_bench, scaled
from repro.core.fragment import fragment_for_mtu
from repro.core.packet import pack_chunks
from repro.core.types import PACKET_HEADER_BYTES
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec, build_chunk_path
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from repro.core.chunk import Chunk
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType


# ----------------------------------------------------------------------
# 1. Router batch window
# ----------------------------------------------------------------------

def run_batch_window(window: float):
    loop = EventLoop()
    receiver = ChunkTransportReceiver()
    first_delivery = {}

    def deliver(frame):
        receiver.receive_packet(frame)
        first_delivery.setdefault("t", loop.now)

    path = build_chunk_path(
        loop,
        [HopSpec(mtu=296), HopSpec(mtu=4096)],
        deliver,
        mode="repack",
        batch_window=window,
    )
    sender = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=256))
    payload = make_bytes(8 * 1024, seed=1)
    chunks = [sender.establishment_chunk()] + sender.close(payload)
    # Pace the source so batching has arrivals spread over time.
    packets = pack_chunks(chunks, 296)
    for index, packet in enumerate(packets):
        loop.at(index * 0.0002, lambda f=packet.encode(): path.send(f))
    path.run()
    assert receiver.stream_bytes() == payload
    big_link = path.links[-1]
    return {
        "window_ms": window * 1000,
        "big_net_packets": big_link.stats.frames_delivered,
        "completion_ms": loop.now * 1000,
    }


def test_batch_window_reduces_packets_but_adds_latency():
    none = run_batch_window(0.0)
    wide = run_batch_window(0.005)
    assert wide["big_net_packets"] < none["big_net_packets"]
    assert wide["completion_ms"] >= none["completion_ms"] - 1e-6


# ----------------------------------------------------------------------
# 2. TPDU size vs ED overhead
# ----------------------------------------------------------------------

def ed_overhead_for_tpdu_units(tpdu_units: int, object_units: int = 8192):
    sender = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=tpdu_units))
    chunks = sender.close(make_bytes(object_units * 4, seed=2))
    ed_bytes = sum(c.wire_bytes for c in chunks if c.is_control)
    payload = object_units * 4
    return 100 * ed_bytes / payload


def test_ed_overhead_inverse_in_tpdu_size():
    values = [ed_overhead_for_tpdu_units(units) for units in (64, 256, 1024, 4096)]
    assert values == sorted(values, reverse=True)
    assert values[0] > 10 * values[-1]


# ----------------------------------------------------------------------
# 3. Atomic-unit SIZE vs fragmentation granularity
# ----------------------------------------------------------------------

def mtu_waste_for_size(size_words: int, mtu: int = 296, units_bytes: int = 16384):
    units = units_bytes // (size_words * 4)
    chunk = Chunk(
        type=ChunkType.DATA,
        size=size_words,
        length=units,
        c=FramingTuple(1, 0),
        t=FramingTuple(1, 0, True),
        x=FramingTuple(1, 0),
        payload=make_bytes(units * size_words * 4, seed=3),
    )
    pieces = fragment_for_mtu(chunk, mtu, PACKET_HEADER_BYTES)
    wire = sum(PACKET_HEADER_BYTES + p.wire_bytes for p in pieces)
    return 100 * (wire - units_bytes) / units_bytes, len(pieces)


def test_bigger_atomic_units_waste_more_mtu_tail():
    overheads = [mtu_waste_for_size(s)[0] for s in (1, 2, 8, 16)]
    assert overheads[0] <= overheads[-1]


def test_fragmentation_never_splits_units():
    for size in (1, 2, 8):
        _, count = mtu_waste_for_size(size)
        assert count >= 1  # exercised; unit integrity asserted inside split


def test_batch_window_benchmark(benchmark):
    result = benchmark(run_batch_window, 0.001)
    assert result["big_net_packets"] > 0


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: the three ablations' key figures."""
    figures: dict[str, object] = {}
    for window in (0.0, 0.005):
        result = run_batch_window(window)
        key = f"window_{window * 1000:g}ms"
        figures[f"{key}.big_net_packets"] = result["big_net_packets"]
        figures[f"{key}.completion_ms"] = result["completion_ms"]
    object_units = scaled(8192, payload_scale, minimum=256)
    for units in (64, 4096):
        figures[f"ed_overhead_pct.tpdu_{units}"] = ed_overhead_for_tpdu_units(
            units, object_units=object_units
        )
    for size in (1, 16):
        overhead, count = mtu_waste_for_size(size)
        figures[f"mtu_waste_pct.size_{size}"] = overhead
        figures[f"fragments.size_{size}"] = count
    return figures


def main():
    rows = [("router batch window (ms)", "big-net packets", "completion (ms)")]
    for window in (0.0, 0.001, 0.005, 0.02):
        result = run_batch_window(window)
        rows.append((result["window_ms"], result["big_net_packets"],
                     result["completion_ms"]))
    print_table("ABL-1 — router batch window (method-2 combining)", rows)

    rows = [("TPDU size (units)", "ED overhead % of payload")]
    for units in (64, 128, 256, 1024, 4096):
        rows.append((units, ed_overhead_for_tpdu_units(units)))
    print_table("ABL-2 — error-detection overhead vs TPDU size", rows)

    rows = [("SIZE (words/unit)", "wire overhead % at MTU 296", "fragments")]
    for size in (1, 2, 4, 8, 16):
        overhead, count = mtu_waste_for_size(size)
        rows.append((size, overhead, count))
    print_table("ABL-3 — atomic-unit size vs fragmentation efficiency", rows)


if __name__ == "__main__":
    main()
