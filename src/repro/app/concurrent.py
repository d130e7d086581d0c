"""Concurrent conversation workloads over one multiplexed endpoint pair.

The paper's applications (bulk transfer, video) were exercised one
conversation at a time; the multiplexed
:class:`~repro.transport.endpoint.ChunkEndpoint` exists so a host can
run *hundreds* at once.  :class:`ConcurrentWorkload` is the driver for
that regime: it launches a staggered mix of bulk and video
conversations between one sender endpoint and one receiver endpoint,
lets every conversation's chunks contend for the same links, table and
placement pool, and reports per-conversation outcomes (completeness,
byte integrity, touch budget) once the simulation drains.

Payloads are pure functions of the C.ID (:func:`deterministic_payload`),
so outcomes verify byte-for-byte without the driver retaining a copy of
every conversation's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.core.errors import EndpointError
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.obs import counter, gauge
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint, Connection
from repro.transport.shard import ShardedEndpoint

__all__ = [
    "ConversationSpec",
    "ConversationOutcome",
    "ConcurrentWorkload",
    "deterministic_payload",
    "staggered_specs",
]

_OBS_LAUNCHED = counter("app", "workload.conversations_launched", "conversations started")
_OBS_COMPLETED = counter(
    "app", "workload.conversations_completed", "conversations fully delivered"
)
_OBS_ACTIVE = gauge("app", "workload.conversations_active", "conversations in flight")


@lru_cache(maxsize=256)
def _payload_pattern(residue: int) -> bytes:
    """The 256-byte pattern shared by every C.ID equal to *residue* mod 256."""
    return bytes((residue * 97 + i * 31 + 7) % 256 for i in range(256))


def deterministic_payload(connection_id: int, nbytes: int) -> bytes:
    """The conversation's payload — reproducible from its C.ID alone."""
    pattern = _payload_pattern(connection_id % 256)
    reps = nbytes // len(pattern) + 1
    return (pattern * reps)[:nbytes]


@dataclass(frozen=True, slots=True)
class ConversationSpec:
    """One conversation's shape in the workload mix.

    ``kind="bulk"`` sends the object as large frames; ``kind="video"``
    sends fixed-size frames paced *frame_interval* apart (each frame is
    one external PDU, so the receiver's per-frame placement and
    frame-complete events engage).
    """

    connection_id: int
    total_bytes: int
    kind: str = "bulk"
    start_time: float = 0.0
    frame_bytes: int = 0
    frame_interval: float = 0.0
    tpdu_units: int = 64
    unit_words: int = 1


@dataclass(slots=True)
class ConversationOutcome:
    """What one conversation achieved by the end of the run."""

    spec: ConversationSpec
    launched: bool = False
    complete: bool = False
    bytes_received: int = 0
    frames_completed: int = 0
    touches_per_byte: float = 0.0
    sender_finished: bool = False
    sender_gave_up: int = 0
    refused: bool = False


@dataclass
class ConcurrentWorkload:
    """Drive many staggered conversations across one endpoint pair."""

    loop: EventLoop | ShardedLoop
    sender: ChunkEndpoint | ShardedEndpoint
    receiver: ChunkEndpoint | ShardedEndpoint
    specs: list[ConversationSpec] = field(default_factory=list)
    launched: int = 0
    refused: int = 0
    _active: int = field(default=0, repr=False)

    def launch(self, specs: list[ConversationSpec]) -> None:
        """Schedule every conversation at its start time."""
        self.specs.extend(specs)
        for spec in specs:
            self.loop.at(spec.start_time, self._make_starter(spec))

    def _make_starter(self, spec: ConversationSpec) -> Callable[[], None]:
        def start() -> None:
            self._start_conversation(spec)

        return start

    def _start_conversation(self, spec: ConversationSpec) -> None:
        config = ConnectionConfig(
            connection_id=spec.connection_id,
            unit_words=spec.unit_words,
            tpdu_units=spec.tpdu_units,
        )
        try:
            connection = self.sender.open_connection(config)
        except EndpointError:
            self.refused += 1
            return
        self.launched += 1
        self._active += 1
        _OBS_LAUNCHED.inc()
        _OBS_ACTIVE.set(self._active)
        payload = deterministic_payload(spec.connection_id, spec.total_bytes)
        frame_size = spec.frame_bytes if spec.frame_bytes > 0 else spec.total_bytes
        frames = [
            payload[start : start + frame_size]
            for start in range(0, len(payload), frame_size)
        ] or [b""]
        for index, frame in enumerate(frames):
            last = index == len(frames) - 1
            delay = index * spec.frame_interval
            self.loop.schedule(
                delay, self._make_frame_sender(connection, frame, last)
            )

    def _make_frame_sender(
        self, connection: Connection, frame: bytes, last: bool
    ) -> Callable[[], None]:
        def send() -> None:
            connection.send_frame(frame, end_of_connection=last)
            if last:
                self._active -= 1
                _OBS_ACTIVE.set(self._active)

        return send

    # ------------------------------------------------------------------

    def run(self) -> list[ConversationOutcome]:
        """Drain the simulation and evaluate every conversation."""
        self.loop.run()
        return [self.outcome(spec) for spec in self.specs]

    def outcome(self, spec: ConversationSpec) -> ConversationOutcome:
        """Evaluate one conversation against its deterministic payload."""
        outcome = ConversationOutcome(spec=spec)
        sender_conn = self.sender.connection(spec.connection_id)
        if sender_conn is None:
            outcome.refused = True
            return outcome
        outcome.launched = True
        outcome.sender_finished = sender_conn.finished
        if sender_conn.sender is not None:
            outcome.sender_gave_up = len(sender_conn.sender.gave_up)
        receiver_conn = self.receiver.connection(spec.connection_id)
        if receiver_conn is None:
            return outcome
        outcome.bytes_received = (
            0
            if receiver_conn.receiver is None
            else receiver_conn.receiver.receiver.stream.bytes_placed
        )
        outcome.frames_completed = (
            0
            if receiver_conn.receiver is None
            else len(receiver_conn.receiver.receiver.frames.completed)
        )
        outcome.touches_per_byte = receiver_conn.touches_per_byte()
        expected = deterministic_payload(spec.connection_id, spec.total_bytes)
        received = receiver_conn.stream_bytes()[: spec.total_bytes]
        outcome.complete = received == expected
        if outcome.complete:
            _OBS_COMPLETED.inc()
        return outcome

    def summary(self) -> dict[str, int]:
        outcomes = [self.outcome(spec) for spec in self.specs]
        return {
            "conversations": len(self.specs),
            "launched": self.launched,
            "refused": self.refused,
            "complete": sum(1 for o in outcomes if o.complete),
            "bytes_received": sum(o.bytes_received for o in outcomes),
        }


def staggered_specs(
    count: int,
    total_bytes: int = 16 * 1024,
    stagger: float = 0.002,
    video_every: int = 4,
    first_connection_id: int = 1,
    frame_bytes: int = 2048,
    tpdu_units: int = 64,
) -> list[ConversationSpec]:
    """A mixed bulk/video workload: every *video_every*-th conversation
    is a paced video stream, the rest are bulk transfers; start times
    stagger by *stagger* seconds so arrivals interleave rather than
    synchronize."""
    specs: list[ConversationSpec] = []
    for index in range(count):
        cid = first_connection_id + index
        if video_every and index % video_every == video_every - 1:
            specs.append(
                ConversationSpec(
                    connection_id=cid,
                    total_bytes=total_bytes,
                    kind="video",
                    start_time=index * stagger,
                    frame_bytes=frame_bytes,
                    frame_interval=stagger,
                    tpdu_units=tpdu_units,
                )
            )
        else:
            specs.append(
                ConversationSpec(
                    connection_id=cid,
                    total_bytes=total_bytes,
                    kind="bulk",
                    start_time=index * stagger,
                    frame_bytes=frame_bytes * 2,
                    tpdu_units=tpdu_units,
                )
            )
    return specs
