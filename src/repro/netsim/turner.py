"""Turner-style TPDU-aware dropping (Section 3).

"Also, if fragments travel along the same route, we have the option of
dropping all of the fragments of a TPDU if any fragment must be
dropped, a technique suggested by Turner [TURN 92]."

:class:`BottleneckQueue` models a congested output queue of bounded
depth.  In ``"random"`` mode it drops whichever frame overflows the
queue; in ``"turner"`` mode, once any frame of a TPDU is dropped, every
later frame carrying chunks of that TPDU is dropped too — the remaining
fragments are useless to the receiver (the TPDU will be retransmitted
whole), so forwarding them only wastes downstream capacity.  The
CLAIM-TURNER bench measures goodput under both policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

from repro.core.errors import CodecError
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim.events import EventLoop

__all__ = ["BottleneckQueue", "QueueStats"]

DropPolicy = Literal["random", "turner"]


@dataclass
class QueueStats:
    frames_in: int = 0
    frames_forwarded: int = 0
    frames_dropped_overflow: int = 0
    frames_dropped_turner: int = 0
    bytes_forwarded: int = 0
    bytes_saved_by_turner: int = 0


@dataclass
class BottleneckQueue:
    """A rate-limited FIFO with bounded depth and a drop policy.

    Attributes:
        loop: event loop.
        forward: downstream delivery.
        rate_bps: drain rate.
        depth_frames: queue capacity; arrivals beyond it are dropped.
        policy: ``"random"`` (plain tail drop) or ``"turner"``.
    """

    loop: EventLoop
    forward: Callable[[bytes], None]
    rate_bps: float = 10e6
    depth_frames: int = 8
    policy: DropPolicy = "random"
    stats: QueueStats = field(default_factory=QueueStats)

    _queue: list[bytes] = field(default_factory=list, init=False)
    _draining: bool = field(default=False, init=False)
    _doomed_tpdus: set[tuple[int, int]] = field(default_factory=set, init=False)

    def send(self, frame: bytes) -> None:
        self.stats.frames_in += 1
        if self.policy == "turner" and self._carries_doomed_tpdu(frame):
            self.stats.frames_dropped_turner += 1
            self.stats.bytes_saved_by_turner += len(frame)
            return
        if len(self._queue) >= self.depth_frames:
            self.stats.frames_dropped_overflow += 1
            if self.policy == "turner":
                self._doom(frame)
            return
        self._queue.append(frame)
        if not self._draining:
            self._drain_next()

    # ------------------------------------------------------------------

    def _drain_next(self) -> None:
        if not self._queue:
            self._draining = False
            return
        self._draining = True
        frame = self._queue.pop(0)
        tx_time = len(frame) * 8 / self.rate_bps
        self.stats.frames_forwarded += 1
        self.stats.bytes_forwarded += len(frame)

        def done() -> None:
            self.forward(frame)
            self._drain_next()

        self.loop.schedule(tx_time, done)

    def _tpdu_keys(self, frame: bytes) -> set[tuple[int, int]]:
        try:
            packet = Packet.decode(frame)
        except CodecError:
            return set()
        return {
            (c.c_id, c.t_id)
            for c in packet.chunks
            if c.type in (ChunkType.DATA, ChunkType.ERROR_DETECTION)
        }

    def _doom(self, frame: bytes) -> None:
        self._doomed_tpdus.update(self._tpdu_keys(frame))

    def _carries_doomed_tpdu(self, frame: bytes) -> bool:
        keys = self._tpdu_keys(frame)
        return bool(keys & self._doomed_tpdus)

    def forget_tpdu(self, c_id: int, t_id: int) -> None:
        """Clear doom state (e.g. when a retransmission begins)."""
        self._doomed_tpdus.discard((c_id, t_id))

    def reset_dooms(self) -> None:
        self._doomed_tpdus.clear()
