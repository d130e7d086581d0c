"""ConcurrentWorkload: staggered bulk/video mixes over one endpoint pair."""

from __future__ import annotations

from repro.app.concurrent import (
    ConcurrentWorkload,
    deterministic_payload,
    staggered_specs,
)
from repro.netsim.events import EventLoop
from repro.transport.endpoint import ChunkEndpoint


def wire(loop: EventLoop, a: ChunkEndpoint, b: ChunkEndpoint, delay: float = 0.001):
    a.transmit = lambda frame: loop.schedule(delay, lambda: b.receive_packet(frame))
    b.transmit = lambda frame: loop.schedule(delay, lambda: a.receive_packet(frame))


def endpoint_pair(loop: EventLoop) -> tuple[ChunkEndpoint, ChunkEndpoint]:
    sender = ChunkEndpoint(loop, mtu=1500)
    receiver = ChunkEndpoint(loop, mtu=1500)
    wire(loop, sender, receiver)
    return sender, receiver


def test_deterministic_payload_is_byte_identical_to_its_definition():
    """The per-residue pattern cache must not change a single byte."""
    for cid in range(1024):
        pattern = bytes((cid * 97 + i * 31 + 7) % 256 for i in range(256))
        for nbytes in (0, 1, 255, 257, 1001):
            expected = (pattern * (nbytes // 256 + 1))[:nbytes]
            assert deterministic_payload(cid, nbytes) == expected


def test_deterministic_payload_depends_only_on_cid_and_length():
    assert deterministic_payload(5, 1000) == deterministic_payload(5, 1000)
    assert deterministic_payload(5, 100) == deterministic_payload(5, 1000)[:100]
    assert deterministic_payload(5, 256) != deterministic_payload(6, 256)


def test_staggered_specs_mix_and_schedule():
    specs = staggered_specs(8, total_bytes=4096, stagger=0.01, video_every=4)
    assert len(specs) == 8
    assert [s.kind for s in specs] == ["bulk"] * 3 + ["video"] + ["bulk"] * 3 + ["video"]
    assert [s.connection_id for s in specs] == list(range(1, 9))
    assert specs[3].frame_interval == 0.01
    assert specs[0].start_time == 0.0
    assert specs[7].start_time == 7 * 0.01
    # video paces small frames; bulk pushes bigger ones
    assert specs[3].frame_bytes < specs[0].frame_bytes


def test_workload_delivers_every_conversation_byte_exact():
    loop = EventLoop()
    sender, receiver = endpoint_pair(loop)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(6, total_bytes=4096, stagger=0.002))
    outcomes = work.run()
    assert len(outcomes) == 6
    assert all(o.launched and o.complete and o.sender_finished for o in outcomes)
    assert all(o.bytes_received == 4096 for o in outcomes)
    assert all(abs(o.touches_per_byte - 1.0) < 1e-9 for o in outcomes)
    summary = work.summary()
    assert summary["launched"] == 6
    assert summary["complete"] == 6
    assert summary["bytes_received"] == 6 * 4096


def test_video_conversations_complete_frames():
    loop = EventLoop()
    sender, receiver = endpoint_pair(loop)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(4, total_bytes=8192, stagger=0.002, video_every=2))
    outcomes = work.run()
    video = [o for o in outcomes if o.spec.kind == "video"]
    assert video and all(o.complete for o in video)
    # 8192 bytes in 2048-byte paced frames = 4 external PDUs each.
    assert all(o.frames_completed == 4 for o in video)


def test_capacity_refusal_is_reported_not_raised():
    loop = EventLoop()
    sender, receiver = endpoint_pair(loop)
    sender.max_connections = 2
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(4, total_bytes=1024, stagger=0.001))
    outcomes = work.run()
    refused = [o for o in outcomes if o.refused]
    completed = [o for o in outcomes if o.complete]
    assert len(refused) == 2
    assert len(completed) == 2
    assert work.refused == 2
    assert work.launched == 2


def test_conversations_share_packets_on_the_wire():
    loop = EventLoop()
    sender = ChunkEndpoint(loop, mtu=8192, flush_window=0.0005)
    receiver = ChunkEndpoint(loop, mtu=8192)
    wire(loop, sender, receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    # Simultaneous starts so egress chunks from different conversations
    # coalesce into mixed packets.
    work.launch(staggered_specs(4, total_bytes=2048, stagger=0.0))
    outcomes = work.run()
    assert all(o.complete for o in outcomes)
    assert sender.mixed_packets > 0
