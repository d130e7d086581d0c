"""No position the transport can produce reaches the ``alpha_pow`` ladder,
and no label reaches the bit-serial ``gf_mul``.

``Wsc2Accumulator.add_bytes`` applies a run's position as a shift and
falls back to ``gf_mul(alpha_pow(high part), ...)`` only for starts the
public accumulator accepts but a TPDU cannot contain; the X pair
multiplies X.ID through the byte tables of its final T.SN's weight.  With
those names made to raise inside ``repro.wsc.wsc2`` and
``repro.wsc.invariant``, the largest TPDU the transport allows — data up
to symbol 16,383 — and a run of frames whose X.IDs are their numbers are
still encoded, refragmented and verified out of order.
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


def _forbid_bit_serial_arithmetic(monkeypatch) -> None:
    monkeypatch.setattr("repro.wsc.wsc2.alpha_pow", _forbidden)
    monkeypatch.setattr("repro.wsc.wsc2.gf_mul", _forbidden)
    # Not imported there: whatever brings it back is made to raise too.
    monkeypatch.setattr("repro.wsc.invariant.gf_mul", _forbidden, raising=False)


def test_largest_tpdus_reversed_at_mtu_296_never_multiply(monkeypatch):
    _forbid_bit_serial_arithmetic(monkeypatch)

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


def test_frames_numbered_by_x_id_reversed_at_mtu_296_never_multiply(monkeypatch):
    _forbid_bit_serial_arithmetic(monkeypatch)

    rng = random.Random(40)
    frames = [rng.randbytes(64 * (1 + index % 5)) for index in range(40)]
    # Frame 17 names itself above 2**24, so all four byte tables are read;
    # the rest are numbered by the sender, 0 .. 38.
    big = (1 << 24) + 0xA5C3
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    chunks = [sender.establishment_chunk()]
    for index, frame in enumerate(frames):
        chunks += sender.send_frame(
            frame, frame_id=big if index == 17 else None, end_of_connection=index == 39
        )
    packets = packet_mod.repack(packet_mod.pack_chunks(chunks, 1500), 296)

    receiver = ChunkTransportReceiver()
    completed = []
    for packet in reversed(packets):
        completed += receiver.receive_packet(packet.encode()).completed_frames

    ids = [*range(17), big, *range(17, 39)]
    assert sorted(completed) == sorted(ids)
    assert [receiver.frames.pop_frame(x_id) for x_id in ids] == frames
    assert sender.tpdus_sent > len(frames) // 2
    assert receiver.verified_tpdus() == sender.tpdus_sent and receiver.corrupted_tpdus() == 0
    assert receiver.pending_tpdus() == []
