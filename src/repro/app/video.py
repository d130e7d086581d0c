"""Video delivery — the paper's second disorder-tolerant application.

"Another example is video.  Although the video frames themselves must be
presented in the correct order, data of an individual frame can be
placed in the frame buffer as they arrive without reordering"
(Section 1).

:class:`VideoPlayoutApp` maps external PDUs (X framing level) to video
frames: chunk payloads land in the stream in arrival order (spatial
placement), each frame a window of it; completed frames enter a
playout queue that presents them in frame-id order at a fixed frame
interval, counting frames that missed their deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.transport.receiver import ChunkTransportReceiver, ReceiverEvents

__all__ = ["PlayoutRecord", "VideoPlayoutApp"]


@dataclass(frozen=True, slots=True)
class PlayoutRecord:
    """One frame's playout outcome."""

    frame_id: int
    ready_at: float
    deadline: float
    size: int

    @property
    def on_time(self) -> bool:
        return self.ready_at <= self.deadline


@dataclass
class VideoPlayoutApp:
    """In-order frame presentation over out-of-order chunk arrival."""

    receiver: ChunkTransportReceiver
    frame_interval: float = 1 / 30
    start_delay: float = 0.1
    first_frame_id: int = 0

    records: list[PlayoutRecord] = field(default_factory=list)
    _ready_times: dict[int, float] = field(default_factory=dict)
    _next_frame: int = field(init=False)

    def __post_init__(self) -> None:
        self._next_frame = self.first_frame_id

    def on_packet(self, now: float, frame: bytes) -> ReceiverEvents:
        """Feed one wire packet at simulated time *now*."""
        events = self.receiver.receive_packet(frame)
        for frame_id in events.completed_frames:
            self._ready_times.setdefault(frame_id, now)
            self._advance()
        return events

    def _advance(self) -> None:
        """Move frames that are ready, in order, into the playout log."""
        while self._next_frame in self._ready_times:
            frame_id = self._next_frame
            window = self.receiver.frames.frame(frame_id)
            size = (window.total_bytes or 0) if window is not None else 0
            deadline = (
                self.start_delay
                + (frame_id - self.first_frame_id) * self.frame_interval
            )
            self.records.append(
                PlayoutRecord(frame_id, self._ready_times[frame_id], deadline, size)
            )
            self._next_frame += 1

    # ------------------------------------------------------------------

    @property
    def frames_played(self) -> int:
        return len(self.records)

    @property
    def frames_late(self) -> int:
        return sum(1 for record in self.records if not record.on_time)

    def frame_bytes(self, frame_id: int) -> bytes:
        """A completed frame's pixels (pops the frame buffer)."""
        return self.receiver.frames.pop_frame(frame_id)
