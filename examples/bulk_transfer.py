#!/usr/bin/env python3
"""Bulk data transfer over a striped gigabit path (Section 1's scenario).

Two supercomputers exchange a large object over 8 parallel 155 Mbps
paths (the AURORA configuration the paper cites).  Path skew disorders
packets; the receiving host performs *spatial* reordering — each chunk's
payload lands directly at its final offset in the application address
space — so no reorder buffer exists and the object checksum still
matches.

Run:  python examples/bulk_transfer.py
"""

import hashlib
import random

from repro.app import BulkTransferApp
from repro.core import pack_chunks
from repro.netsim import EventLoop
from repro.paper.multipath import aurora_stripe
from repro.transport import (
    ChunkTransportReceiver,
    ChunkTransportSender,
    ConnectionConfig,
)


def main() -> None:
    object_bytes = 256 * 1024
    rng = random.Random(2024)
    payload = bytes(rng.randrange(256) for _ in range(object_bytes))
    digest = hashlib.sha256(payload).hexdigest()
    print(f"object: {object_bytes} bytes, sha256={digest[:16]}...")

    config = ConnectionConfig(connection_id=1, tpdu_units=4096)
    sender = ChunkTransportSender(config)
    app = BulkTransferApp(
        receiver=ChunkTransportReceiver(), expected_bytes=object_bytes
    )

    loop = EventLoop()
    arrival_order = []
    sent_frames: dict[bytes, int] = {}

    def deliver(frame: bytes) -> None:
        arrival_order.append(sent_frames.get(frame, -1))
        app.on_packet(frame)

    channel = aurora_stripe(
        loop, deliver, paths=8, rate_bps=155e6, skew=0.00035, seed=7
    )

    chunks = [sender.establishment_chunk()]
    step = 16 * 1024
    for index, offset in enumerate(range(0, object_bytes, step)):
        piece = payload[offset : offset + step]
        last = offset + step >= object_bytes
        if last:
            chunks += sender.close(piece, frame_id=index)
        else:
            chunks += sender.send_frame(piece, frame_id=index)

    packets = pack_chunks(chunks, mtu=9180)  # ATM AAL5 jumbo MTU
    for index, packet in enumerate(packets):
        frame = packet.encode()
        sent_frames[frame] = index
        channel.send(frame)
    loop.run()

    disordered = sum(
        1 for i in range(1, len(arrival_order))
        if arrival_order[i] < max(arrival_order[:i])
    )
    print(f"packets sent: {len(packets)}; "
          f"arrivals out of order: {disordered} "
          f"({100 * disordered / len(arrival_order):.1f}%)")
    print(f"TPDUs verified: {app.receiver.verified_tpdus()}, "
          f"corrupted: {app.receiver.corrupted_tpdus()}")
    print(f"transfer complete: {app.is_complete()}")
    print(f"received sha256 matches: {app.sha256() == digest}")
    print(f"simulated transfer time: {loop.now * 1000:.2f} ms")


if __name__ == "__main__":
    main()
