#!/usr/bin/env python3
"""Quickstart: a chunk connection from sender to receiver in ~40 lines.

Demonstrates the core loop of the paper:

1. the sender frames application data into self-describing chunks and
   attaches one WSC-2 error-detection chunk per TPDU;
2. packets act as envelopes; we deliberately shuffle them to simulate a
   badly misordering network;
3. the receiver processes every chunk the moment it arrives — no
   reordering, no reassembly buffer — and still delivers a verified,
   byte-exact stream.

Run:  python examples/quickstart.py
"""

import random

from repro.core import pack_chunks
from repro.transport import (
    ChunkTransportReceiver,
    ChunkTransportSender,
    ConnectionConfig,
)


def main() -> None:
    config = ConnectionConfig(connection_id=7, tpdu_units=64)
    sender = ChunkTransportSender(config)
    receiver = ChunkTransportReceiver()

    message = (b"Chunks are completely self-describing data units, "
               b"within which all data is processed uniformly. " * 40)
    message += b"\x00" * (-len(message) % config.unit_bytes)  # unit-align

    # Sender side: establishment signaling, frames, connection close.
    chunks = [sender.establishment_chunk()]
    half = len(message) // 2 // config.unit_bytes * config.unit_bytes
    chunks += sender.send_frame(message[:half], frame_id=0)
    chunks += sender.close(message[half:], frame_id=1)

    # Pack into 576-byte packets and shuffle them violently.
    packets = pack_chunks(chunks, mtu=576)
    random.Random(1993).shuffle(packets)
    print(f"sending {len(packets)} packets, shuffled")

    # Receiver side: immediate processing, in arrival order.
    for packet in packets:
        events = receiver.receive_packet(packet.encode())
        for verdict in events.verdicts:
            print(f"  {verdict}")

    got = receiver.stream_bytes()
    assert got == message, "stream mismatch!"
    print(f"\nreceived {len(got)} bytes, byte-exact: True")
    print(f"TPDUs verified: {receiver.verified_tpdus()}, "
          f"corrupted: {receiver.corrupted_tpdus()}")
    print(f"connection closed cleanly: {receiver.closed}")


if __name__ == "__main__":
    main()
