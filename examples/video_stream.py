#!/usr/bin/env python3
"""Video over a lossy, misordering network (the paper's second use case).

"Although the video frames themselves must be presented in the correct
order, data of an individual frame can be placed in the frame buffer as
they arrive without reordering" (Section 1).

Each video frame is one external PDU (an Application Layer Frame): the
X-level (ID, SN, ST) tuple tells the receiver which frame and which
pixel offset every chunk belongs to, so chunks fill the frame buffer in
arrival order.  Lost packets delay only the frames they carry.

Run:  python examples/video_stream.py
"""

import random

from repro.app import VideoPlayoutApp
from repro.core import pack_chunks
from repro.netsim import EventLoop, HopSpec, build_chunk_path
from repro.transport import (
    ChunkTransportReceiver,
    ChunkTransportSender,
    ConnectionConfig,
)

FRAME_BYTES = 8 * 1024     # a small 'video' frame
FRAME_COUNT = 30
FRAME_INTERVAL = 1 / 30


def main() -> None:
    rng = random.Random(77)
    frames = [
        bytes(rng.randrange(256) for _ in range(FRAME_BYTES))
        for _ in range(FRAME_COUNT)
    ]

    config = ConnectionConfig(connection_id=9, tpdu_units=1024)
    sender = ChunkTransportSender(config)
    app = VideoPlayoutApp(
        receiver=ChunkTransportReceiver(),
        frame_interval=FRAME_INTERVAL,
        start_delay=0.25,
    )

    loop = EventLoop()
    path = build_chunk_path(
        loop,
        [HopSpec(mtu=1500, rate_bps=25e6, delay=0.005, loss_rate=0.02)],
        lambda frame: app.on_packet(loop.now, frame),
        seed=4,
    )

    wire_chunks = [sender.establishment_chunk()]
    for frame_id, pixels in enumerate(frames):
        if frame_id == FRAME_COUNT - 1:
            wire_chunks += sender.close(pixels, frame_id=frame_id)
        else:
            wire_chunks += sender.send_frame(pixels, frame_id=frame_id)

    # Pace frames onto the wire at the camera rate.
    packets = pack_chunks(wire_chunks, mtu=1500)
    for index, packet in enumerate(packets):
        # Roughly FRAME_COUNT frames over FRAME_COUNT * interval seconds.
        at = index * (FRAME_COUNT * FRAME_INTERVAL) / len(packets)
        loop.at(at, lambda f=packet.encode(): path.send(f))
    loop.run()

    # One retransmission round for frames stalled by packet loss.
    for _, t_id in app.receiver.pending_tpdus():
        for packet in pack_chunks(sender.retransmit(t_id), 1500):
            path.send(packet.encode())
    loop.run()

    print(f"frames sent: {FRAME_COUNT}, played: {app.frames_played}, "
          f"late: {app.frames_late}")
    ok = sum(
        1 for fid in range(app.frames_played)
        if app.receiver.frames.frame(fid) is not None
        and app.receiver.frames.contents(fid) == frames[fid]
    )
    print(f"frames with pixel-exact content: {ok}/{app.frames_played}")
    print(f"TPDUs verified: {app.receiver.verified_tpdus()}, "
          f"corrupted: {app.receiver.corrupted_tpdus()}")
    print(f"simulated stream duration: {loop.now:.2f} s")


if __name__ == "__main__":
    main()
