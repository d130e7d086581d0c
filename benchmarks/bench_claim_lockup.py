"""CLAIM-LOCKUP: chunks eliminate reassembly-buffer lock-up (Section 3.3).

Paper: "Reassembly buffer lock-up occurs when the reassembly buffer is
filled completely and yet no single PDU is complete.  Reassembly buffer
lock-up can be a problem with disordered IP fragments [KENT 87].
Chunks eliminate this problem because they can be processed and moved
to their final destination as they arrive without prior physical
reassembly."

Reproduction: interleave fragments of many concurrent PDUs through a
deep round-robin disorder pattern into (a) a capacity-bounded IP
reassembler and (b) a chunk immediate-processing receiver whose only
per-PDU state is virtual-reassembly bookkeeping.  Sweep the buffer
budget; count lock-up events and rejected fragments.
"""

from __future__ import annotations

from _common import make_bytes, print_table, register_bench
from repro.paper.ipfrag import IpReassembler, fragment_datagram
from repro.core.builder import ChunkStreamBuilder
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import pack_chunks
from repro.transport.receiver import ChunkTransportReceiver
from repro.wsc.invariant import encode_tpdu

PDUS = 32
PDU_BYTES = 2048
MTU = 576


def interleaved_ip_fragments():
    """Round-robin interleave one fragment from each of PDUS datagrams —
    the worst case for a bounded reassembly buffer."""
    per_pdu = [
        fragment_datagram(ident, make_bytes(PDU_BYTES, seed=ident), MTU)
        for ident in range(PDUS)
    ]
    longest = max(len(f) for f in per_pdu)
    stream = []
    for round_index in range(longest):
        for frags in per_pdu:
            if round_index < len(frags):
                stream.append(frags[round_index])
    return stream


def ip_lockup_at(capacity):
    reasm = IpReassembler(capacity_bytes=capacity, evict_after=1e9)
    completed = 0
    for fragment in interleaved_ip_fragments():
        if reasm.add_fragment(fragment) is not None:
            completed += 1
    return {
        "completed": completed,
        "lockups": reasm.stats.lockup_events,
        "rejected": reasm.stats.fragments_rejected,
        "peak": reasm.stats.peak_buffer_bytes,
    }


def chunk_traffic():
    """The same load as chunks: PDUS TPDUs, fragments interleaved."""
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=PDU_BYTES // 4)
    per_pdu = []
    for ident in range(PDUS):
        chunks = builder.add_frame(make_bytes(PDU_BYTES, seed=ident), frame_id=ident)
        _, ed = encode_tpdu([c for c in chunks if c.t.ident == ident])
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 128)]
        per_pdu.append(pieces + [ed])
    longest = max(len(p) for p in per_pdu)
    stream = []
    for round_index in range(longest):
        for pieces in per_pdu:
            if round_index < len(pieces):
                stream.append(pieces[round_index])
    return stream


def chunk_run():
    receiver = ChunkTransportReceiver()
    for chunk in chunk_traffic():
        for packet in pack_chunks([chunk], MTU):
            receiver.receive_packet(packet.encode())
    return {
        "verified": receiver.verified_tpdus(),
        "payload_buffered": 0,  # payload goes straight to app memory
        "corrupted": receiver.corrupted_tpdus(),
    }


def test_ip_locks_up_under_tight_buffers():
    tight = ip_lockup_at(capacity=4 * PDU_BYTES)
    assert tight["lockups"] > 0
    assert tight["rejected"] > 0
    assert tight["completed"] < PDUS


def test_ip_needs_full_working_set_to_avoid_lockup():
    ample = ip_lockup_at(capacity=PDUS * PDU_BYTES)
    assert ample["lockups"] == 0
    assert ample["completed"] == PDUS


def test_chunks_never_lock_up():
    result = chunk_run()
    assert result["verified"] == PDUS
    assert result["corrupted"] == 0
    assert result["payload_buffered"] == 0


def test_chunk_receiver_throughput(benchmark):
    stream = chunk_traffic()
    packets = [p.encode() for c in stream for p in pack_chunks([c], MTU)]

    def run():
        receiver = ChunkTransportReceiver()
        for frame in packets:
            receiver.receive_packet(frame)
        return receiver

    receiver = benchmark(run)
    assert receiver.verified_tpdus() == PDUS


def test_ip_reassembler_throughput(benchmark):
    stream = interleaved_ip_fragments()

    def run():
        reasm = IpReassembler(capacity_bytes=PDUS * PDU_BYTES)
        return sum(1 for f in stream if reasm.add_fragment(f) is not None)

    completed = benchmark(run)
    assert completed == PDUS


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: bounded-IP lock-up vs chunk immunity."""
    tight = ip_lockup_at(capacity=4 * PDU_BYTES)
    ample = ip_lockup_at(capacity=PDUS * PDU_BYTES)
    chunks = chunk_run()
    return {
        "ip_tight.completed": tight["completed"],
        "ip_tight.lockups": tight["lockups"],
        "ip_tight.rejected": tight["rejected"],
        "ip_ample.completed": ample["completed"],
        "ip_ample.lockups": ample["lockups"],
        "chunks.verified": chunks["verified"],
        "chunks.corrupted": chunks["corrupted"],
        "chunks.payload_buffered": chunks["payload_buffered"],
    }


def main():
    rows = [("reassembly buffer", "PDUs completed", "lock-up events",
             "fragments rejected", "peak buffer B")]
    for factor in (2, 4, 8, 16, 32):
        capacity = factor * PDU_BYTES
        result = ip_lockup_at(capacity)
        rows.append((f"IP, {factor} PDUs worth", result["completed"],
                     result["lockups"], result["rejected"], result["peak"]))
    chunk_result = chunk_run()
    rows.append(("chunks (any budget)", chunk_result["verified"], 0, 0, 0))
    print_table(
        f"CLAIM-LOCKUP — {PDUS} interleaved {PDU_BYTES}-byte PDUs, MTU {MTU}",
        rows,
    )
    print("paper's claim: bounded IP reassembly buffers lock up under")
    print("interleaved fragments; chunks hold no payload, so there is no")
    print("buffer to lock (virtual reassembly state only).")


if __name__ == "__main__":
    main()
