"""No position the transport can produce reaches the ``alpha_pow`` ladder.

``Wsc2Accumulator.add_bytes`` applies a run's position as a shift and
falls back to ``gf_mul(alpha_pow(high part), ...)`` only for starts the
public accumulator accepts but a TPDU cannot contain.  With both names
made to raise inside ``repro.wsc.wsc2``, the largest TPDU the transport
allows — data up to symbol 16,383 — is still encoded, refragmented and
verified out of order.
"""

from __future__ import annotations

import random

from repro.core import packet as packet_mod
from repro.core.types import MAX_TPDU_SYMBOLS
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender


def _forbidden(*args):
    raise AssertionError(f"bit-serial GF(2^32) arithmetic on the wire path: {args}")


def test_largest_tpdus_reversed_at_mtu_296_never_multiply(monkeypatch):
    monkeypatch.setattr("repro.wsc.wsc2.alpha_pow", _forbidden)
    monkeypatch.setattr("repro.wsc.wsc2.gf_mul", _forbidden)

    payload = random.Random(19).randbytes(4 * MAX_TPDU_SYMBOLS * 5 // 2)
    sender = ChunkTransportSender(
        ConnectionConfig(connection_id=9, tpdu_units=MAX_TPDU_SYMBOLS)
    )
    chunks = [sender.establishment_chunk()]
    chunks += sender.send_frame(payload, end_of_connection=True)
    packets = packet_mod.repack(packet_mod.pack_chunks(chunks, 1500), 296)

    receiver = ChunkTransportReceiver()
    for packet in reversed(packets):
        receiver.receive_packet(packet.encode())

    assert sender.tpdus_sent == 3
    assert receiver.verified_tpdus() == 3 and receiver.corrupted_tpdus() == 0
    assert receiver.pending_tpdus() == []
    assert receiver.stream_bytes() == payload
