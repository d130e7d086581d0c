#!/usr/bin/env python3
"""A complete reliable transfer: timers, ACK chunks, adaptive TPDUs.

Everything Section 3.3 and Appendix A sketch, assembled: per-TPDU WSC-2
verification, acknowledgments travelling as ordinary chunks (piggybacked
into whatever packet has room), retransmissions that reuse the original
identifiers, and a TPDU size that shrinks to match the observed error
rate and grows back when the path is clean.

Run:  python examples/reliable_transfer.py [--trace transfer.jsonl]

With ``--trace PATH`` the run records per-layer counters and its
journey records (one event log, keyed by the chunk label) via
``repro.obs`` and writes them to one JSONL file; inspect it with
``python -m repro.obs report PATH``.
"""

import argparse
import random
import sys
from contextlib import nullcontext

from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim import EventLoop, Link
from repro.netsim.rng import substream
from repro.obs import journey_session, session, write_jsonl
from repro.transport import (
    AdaptiveTpduPolicy,
    ConnectionConfig,
    ReliableReceiver,
    ReliableSender,
)

OBJECT_BYTES = 128 * 1024
FRAME_BYTES = 4096
LOSS = 0.15


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write an observability trace (JSONL) to PATH",
    )
    options = parser.parse_args(argv if argv is not None else [])

    loop = EventLoop()
    journey = journey_session(clock=lambda: loop.now) if options.trace else nullcontext()
    with session(clock=lambda: loop.now) as (registry, _), journey as tracker:
        _run(loop)
        if options.trace is not None:
            records = write_jsonl(options.trace, registry=registry, journey=tracker)
            print(f"trace: {records} records -> {options.trace}")


def _run(loop: EventLoop) -> None:
    box = {}

    forward = Link(
        loop, deliver=lambda f: box["rx"].receive_packet(f),
        loss_rate=LOSS, rng=substream(11, "fwd"), mtu=1500,
        rate_bps=100e6, delay=0.004,
    )
    policy = AdaptiveTpduPolicy(
        min_units=64, max_units=2048, current_units=1024,
        grow_after=4, grow_step=128,
    )
    sender = ReliableSender(
        loop, forward.send,
        ConnectionConfig(connection_id=12, tpdu_units=1024),
        mtu=1500, rto=0.06, policy=policy,
    )

    def deliver_acks(frame):
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                sender.handle_ack_chunk(chunk)

    reverse = Link(
        loop, deliver=deliver_acks, loss_rate=LOSS,
        rng=substream(11, "rev"), mtu=1500, rate_bps=100e6, delay=0.004,
    )
    box["rx"] = ReliableReceiver(transmit=reverse.send)

    rng = random.Random(3)
    payload = b""
    frame_count = OBJECT_BYTES // FRAME_BYTES
    for index in range(frame_count):
        data = bytes(rng.randrange(256) for _ in range(FRAME_BYTES))
        payload += data
        last = index == frame_count - 1
        loop.at(
            index * 0.01,
            lambda d=data, i=index, eoc=last: sender.send_frame(
                d, frame_id=i, end_of_connection=eoc
            ),
        )
    loop.run()

    received = box["rx"].receiver.stream_bytes()
    print(f"object: {OBJECT_BYTES} bytes over a {LOSS:.0%}-loss path (both ways)")
    print(f"byte-exact delivery: {received == payload}")
    print(f"TPDUs verified: {box['rx'].receiver.verified_tpdus()}, "
          f"corrupted: {box['rx'].receiver.corrupted_tpdus()}")
    print(f"retransmissions: {sender.retransmissions}, gave up: {len(sender.gave_up)}")
    print(f"ACK packets: {box['rx'].acks_sent}")
    print(f"goodput efficiency: {len(payload) / sender.bytes_sent:.2%} "
          f"(payload / bytes sent incl. retransmissions)")
    print(f"TPDU size: started 1024 units, finished {sender.sender.tpdu_units} "
          f"(adapted to the loss rate)")
    print(f"completed at t = {loop.now:.2f} s simulated")


if __name__ == "__main__":
    main(sys.argv[1:])
