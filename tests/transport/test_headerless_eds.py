"""Every ED chunk that can ride header-less does, on the endpoint workloads.

Appendix A: the chunk after a TPDU's last DATA chunk is its ED chunk, so
that ED chunk "does not require a chunk header".  Egress keeps each
lane's chunks together and the packer charges such an ED chunk its 12
payload bytes, so a final DATA chunk and its ED chunk share a packet,
side by side, and the codec elides the header.  This guard wraps
``Packet.encode`` over one smoke-scale pass of the two endpoint
workloads of ``bench_e2e.workloads`` and counts the ED chunks that still
went on the wire with a header: none.  A drain that interleaves lanes
chunk by chunk sends 53 on ``sharded_1k``; a pack budget that charges
such an ED chunk its header parts 2 pairs on ``mux_256``.
"""

from __future__ import annotations

import pytest

from bench_e2e import workloads
from repro.core.packet import Packet
from repro.core.types import HEADER_BYTES, PACKET_HEADER_BYTES, ChunkType

SEED = 1993
SMOKE_SCALE = 1 / 16


@pytest.mark.parametrize("name", ["mux_256", "sharded_1k"])
def test_no_ed_chunk_is_sent_with_a_header(name, monkeypatch):
    encode = Packet.encode
    counts = {"eds": 0, "headered": 0}

    def counting_encode(packet: Packet) -> bytes:
        encoded = encode(packet)
        eds = sum(chunk.type is ChunkType.ERROR_DETECTION for chunk in packet.chunks)
        full = PACKET_HEADER_BYTES + sum(chunk.wire_bytes for chunk in packet.chunks)
        counts["eds"] += eds
        counts["headered"] += eds - (full - len(encoded)) // HEADER_BYTES  # one saved per elided ED
        return encoded

    monkeypatch.setattr(Packet, "encode", counting_encode)
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(SEED, SMOKE_SCALE)
    state = workload.run(inputs)
    result = workload.check(inputs, state)
    assert not result.failed, result.problems
    assert counts["eds"] > 50
    assert counts["headered"] == 0
