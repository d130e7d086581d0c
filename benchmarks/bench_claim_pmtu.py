"""CLAIM-PMTU: path-MTU discovery vs in-network chunk fragmentation (§3).

Paper: Kent & Mogul's alternative to fragmentation — probe the route's
MTU and never send anything bigger — costs discovery round trips up
front, and "the approach sacrifices the flexibility of alternate
routing": when a route change lowers the path MTU, oversize packets
vanish silently until the sender notices, stalls, and re-probes.  Chunk
fragmentation is transparent: the router re-envelopes and nothing
stalls.

Reproduction: transfer the same object over a path whose MTU drops from
1500 to 296 mid-transfer, with (a) a PMTU-discovery sender and (b) a
chunk transport over a fragmenting router.  Report discovery time,
stall time, black-holed packets, and total completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from _common import make_bytes, print_table, register_bench
from repro.paper.pathmtu import PathMtuProber, PmtuSender
from repro.core.packet import pack_chunks
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.router import ChunkRouter
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

OBJECT_BYTES = 300_000
RTT = 0.02
MTU_BEFORE = 1500
MTU_AFTER = 296


@dataclass
class MutablePath:
    """Silent-drop path used by the PMTU sender."""

    loop: EventLoop
    mtu: int = MTU_BEFORE
    delivered: int = field(default=0, init=False)

    def send_probe(self, size, on_echo):
        if size <= self.mtu:
            self.loop.schedule(RTT, on_echo)

    def transmit(self, packet, on_ack):
        if len(packet) <= self.mtu:
            self.delivered += len(packet)
            self.loop.schedule(RTT, on_ack)


def run_pmtu(change_at: float | None):
    loop = EventLoop()
    path = MutablePath(loop)
    prober = PathMtuProber(loop, path.send_probe, probe_timeout=2 * RTT)
    sender = PmtuSender(loop, prober, path.transmit, blackhole_timeout=4 * RTT)
    done = {}
    sender.start(make_bytes(OBJECT_BYTES, seed=1), lambda: done.update(at=loop.now))
    if change_at is not None:
        loop.at(change_at, lambda: setattr(path, "mtu", MTU_AFTER))
    loop.run()
    assert "at" in done
    return {
        "completion": done["at"],
        "discovery": sender.discovery_time,
        "stall": sender.stall_time,
        "blackholed": sender.packets_blackholed,
        "reprobes": sender.reprobes,
    }


def run_chunks(change_at: float | None):
    loop = EventLoop()
    receiver = ChunkTransportReceiver()
    done = {}

    def deliver(frame):
        receiver.receive_packet(frame)
        if receiver.closed and not receiver.pending_tpdus():
            done.setdefault("at", loop.now)

    last = Link(loop, deliver, rate_bps=600e6, delay=RTT / 2, mtu=MTU_BEFORE)
    router = ChunkRouter(loop, last.send, out_mtu=last.mtu)
    first = Link(loop, router.receive, rate_bps=600e6, delay=RTT / 2, mtu=4096)

    if change_at is not None:
        def shrink():
            last.mtu = MTU_AFTER
            router.out_mtu = MTU_AFTER
        loop.at(change_at, shrink)

    sender = ChunkTransportSender(ConnectionConfig(connection_id=1, tpdu_units=256))
    payload = make_bytes(OBJECT_BYTES, seed=1)
    chunks = [sender.establishment_chunk()] + sender.close(payload)
    packets = pack_chunks(chunks, 4096)
    # Pace the source across the change point.
    horizon = (change_at or 0.0) * 2 + 0.5
    for index, packet in enumerate(packets):
        loop.at(index * horizon / len(packets), lambda f=packet.encode(): first.send(f))
    loop.run()
    assert receiver.stream_bytes() == payload
    return {
        "completion": done["at"],
        "discovery": 0.0,
        "stall": 0.0,
        "blackholed": 0,
        "reprobes": 0,
    }


def test_pmtu_pays_discovery_even_on_stable_routes():
    result = run_pmtu(change_at=None)
    assert result["discovery"] > 10 * RTT  # many probe timeouts


def test_route_change_stalls_pmtu_but_not_chunks():
    pmtu = run_pmtu(change_at=2.0)
    chunks = run_chunks(change_at=2.0)
    assert pmtu["blackholed"] >= 1 and pmtu["stall"] > 0
    assert chunks["blackholed"] == 0 and chunks["stall"] == 0


def test_chunk_path_survives_mtu_drop_mid_transfer():
    result = run_chunks(change_at=1.0)
    assert result["completion"] > 0


def test_pmtu_transfer_benchmark(benchmark):
    result = benchmark(run_pmtu, None)
    assert result["completion"] > 0


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: route-change costs, PMTU vs chunk fragmentation."""
    pmtu = run_pmtu(change_at=2.0)
    chunks = run_chunks(change_at=2.0)
    return {
        "pmtu.discovery_s": pmtu["discovery"],
        "pmtu.stall_s": pmtu["stall"],
        "pmtu.blackholed": pmtu["blackholed"],
        "pmtu.reprobes": pmtu["reprobes"],
        "chunks.stall_s": chunks["stall"],
        "chunks.blackholed": chunks["blackholed"],
        "chunks.completion_s": chunks["completion"],
    }


def main():
    rows = [("scenario", "system", "discovery s", "stall s", "black-holed pkts",
             "re-probes")]
    stable_pmtu = run_pmtu(None)
    stable_chunks = run_chunks(None)
    change_pmtu = run_pmtu(2.0)
    change_chunks = run_chunks(2.0)
    rows.append(("stable route", "PMTU discovery", stable_pmtu["discovery"],
                 stable_pmtu["stall"], stable_pmtu["blackholed"], stable_pmtu["reprobes"]))
    rows.append(("stable route", "chunk fragmentation", 0.0, 0.0, 0, 0))
    rows.append(("MTU drops mid-transfer", "PMTU discovery", change_pmtu["discovery"],
                 change_pmtu["stall"], change_pmtu["blackholed"], change_pmtu["reprobes"]))
    rows.append(("MTU drops mid-transfer", "chunk fragmentation", 0.0, 0.0, 0, 0))
    print_table(
        "CLAIM-PMTU — never-fragment + discovery vs transparent chunk "
        "fragmentation",
        rows,
    )
    print("paper's claim (§3): avoiding fragmentation by discovering the path")
    print("MTU costs probe round trips and sacrifices alternate routing — a")
    print("route change black-holes traffic until re-probe; chunk routers")
    print("just re-envelope.")


if __name__ == "__main__":
    main()
