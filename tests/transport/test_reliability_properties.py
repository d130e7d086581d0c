"""Property test: reliable delivery converges under any bounded loss.

Hypothesis drives an adversarial deterministic drop schedule (a boolean
per transmission, cycled); as long as the schedule does not drop
*everything forever*, the sender/receiver pair must converge to a
byte-exact stream with all TPDUs verified — independent of which
packets die, in which order, on which direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim.events import EventLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.reliability import ReliableReceiver, ReliableSender

from tests.helpers import make_payload


@dataclass
class ScriptedLink:
    """Drops transmissions per a cyclic boolean schedule.

    To guarantee liveness the schedule is only consulted for the first
    `len(schedule) * repeat_cap` transmissions; afterwards everything is
    delivered (models loss that is heavy but not total).
    """

    loop: EventLoop
    deliver: "callable"
    schedule: tuple[bool, ...]
    delay: float = 0.005
    repeat_cap: int = 4
    _count: int = field(default=0, init=False)

    def send(self, frame: bytes) -> None:
        index = self._count
        self._count += 1
        if (
            self.schedule
            and index < len(self.schedule) * self.repeat_cap
            and self.schedule[index % len(self.schedule)]
        ):
            return  # dropped
        self.loop.schedule(self.delay, lambda: self.deliver(frame))


@given(
    fwd_drops=st.lists(st.booleans(), min_size=1, max_size=20),
    rev_drops=st.lists(st.booleans(), min_size=1, max_size=20),
    frames=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_converges_under_any_bounded_drop_schedule(fwd_drops, rev_drops, frames):
    loop = EventLoop()
    box = {}
    fwd = ScriptedLink(loop, lambda f: box["rx"].receive_packet(f), tuple(fwd_drops))
    # Worst case needs one retry per scheduled drop on BOTH directions
    # (every data retransmission may burn one dropped ACK), so the retry
    # budget must exceed both caps combined: 2 * 20 * repeat_cap(4).
    sender = ReliableSender(
        loop, fwd.send,
        ConnectionConfig(connection_id=1, tpdu_units=16),
        rto=0.05, max_retries=200,
    )

    def deliver_acks(frame):
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                sender.handle_ack_chunk(chunk)

    rev = ScriptedLink(loop, deliver_acks, tuple(rev_drops))
    box["rx"] = ReliableReceiver(transmit=rev.send)

    payload = b""
    for index in range(frames):
        data = make_payload(16, seed=index)
        payload += data
        sender.send_frame(
            data, frame_id=index, end_of_connection=index == frames - 1
        )
    loop.run()

    assert sender.gave_up == []
    assert sender.finished
    assert box["rx"].receiver.stream_bytes() == payload
    assert box["rx"].receiver.corrupted_tpdus() == 0


@given(
    fwd_drops=st.lists(st.booleans(), min_size=1, max_size=16),
)
@settings(max_examples=20, deadline=None)
def test_total_forward_loss_gives_up_cleanly(fwd_drops):
    """With a dead forward path the sender must give up, not hang."""
    loop = EventLoop()
    fwd = ScriptedLink(
        loop, lambda f: None, tuple(True for _ in fwd_drops), repeat_cap=10**9
    )
    sender = ReliableSender(
        loop, fwd.send,
        ConnectionConfig(connection_id=1, tpdu_units=16),
        rto=0.01, max_retries=4,
    )
    sender.send_frame(make_payload(16), end_of_connection=True)
    loop.run()
    assert sender.gave_up
    assert sender.finished
