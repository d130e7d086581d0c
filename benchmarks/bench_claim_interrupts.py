"""CLAIM-IRQ: interrupt reduction via PDU-completion signalling (§3).

Paper: "interrupts can be reduced if the host-network interface
interrupts only after complete PDUs have been received.  Such an
approach is suggested in [STER 90], and a host-network interface built
by Davie moves individual packets across a computer bus using DMA, but
generates interrupts only for complete PDUs [DAVI 91]."

Chunk labels are what let the NIC do this with *bookkeeping only* — it
runs virtual reassembly on headers, DMAs payloads to their final
addresses, and never buffers.  Reproduction: the same packetized TPDU
traffic hits a per-packet NIC and a per-PDU NIC across an MTU sweep
(smaller MTU = more packets per TPDU = bigger reduction), disordered by
multipath striping so TPDU completions interleave.
"""

from __future__ import annotations

from _common import make_bytes, print_table, register_bench
from repro.core.builder import ChunkStreamBuilder
from repro.core.packet import pack_chunks
from repro.paper.interrupts import PerPacketNic, PerPduNic
from repro.netsim.events import EventLoop
from repro.paper.multipath import aurora_stripe

TPDUS = 16
TPDU_UNITS = 512  # 2 KiB


def traffic(mtu: int, skew=0.0004, seed=4):
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=TPDU_UNITS)
    chunks = []
    for index in range(TPDUS):
        chunks += builder.add_frame(
            make_bytes(TPDU_UNITS * 4, seed=index), frame_id=index
        )
    loop = EventLoop()
    arrivals: list[bytes] = []
    channel = aurora_stripe(loop, arrivals.append, paths=8, skew=skew, seed=seed)
    for packet in pack_chunks(chunks, mtu):
        channel.send(packet.encode())
    loop.run()
    return arrivals


def compare(mtu: int):
    arrivals = traffic(mtu)
    per_packet = PerPacketNic()
    per_pdu = PerPduNic()
    for frame in arrivals:
        per_packet.on_packet(frame)
        per_pdu.on_packet(frame)
    return {
        "mtu": mtu,
        "packets": per_packet.interrupts,
        "pdu_interrupts": per_pdu.interrupts,
        "reduction": per_packet.interrupts / per_pdu.interrupts,
    }


def test_interrupts_scale_with_pdus_not_packets():
    for mtu in (1500, 576):
        result = compare(mtu)
        assert result["pdu_interrupts"] == TPDUS
        assert result["packets"] > TPDUS


def test_reduction_grows_as_mtu_shrinks():
    reductions = [compare(mtu)["reduction"] for mtu in (9180, 1500, 576)]
    assert reductions == sorted(reductions)


def test_per_pdu_nic_throughput(benchmark):
    arrivals = traffic(576)

    def run():
        nic = PerPduNic()
        for frame in arrivals:
            nic.on_packet(frame)
        return nic

    nic = benchmark(run)
    assert nic.interrupts == TPDUS


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: interrupt counts at two MTUs."""
    figures: dict[str, object] = {}
    for mtu in (1500, 576):
        result = compare(mtu)
        figures[f"mtu_{mtu}.packets"] = result["packets"]
        figures[f"mtu_{mtu}.pdu_interrupts"] = result["pdu_interrupts"]
        figures[f"mtu_{mtu}.reduction"] = result["reduction"]
    return figures


def main():
    rows = [("MTU", "packets (per-packet IRQs)", "per-PDU IRQs", "reduction")]
    for mtu in (9180, 4096, 1500, 576, 296):
        result = compare(mtu)
        rows.append((result["mtu"], result["packets"],
                     result["pdu_interrupts"], result["reduction"]))
    print_table(
        f"CLAIM-IRQ — interrupts for {TPDUS} x {TPDU_UNITS * 4 // 1024} KiB "
        "TPDUs over the striped path",
        rows,
    )
    print("paper's claim ([STER 90]/[DAVI 91]): interrupt per complete PDU,")
    print("not per packet; chunk labels give the NIC TPDU completion for free")
    print("(virtual reassembly on headers, DMA to final addresses, no buffer).")


if __name__ == "__main__":
    main()
