"""Network links.

A :class:`Link` moves opaque byte frames from its input to a delivery
callback with serialization delay (frame length / rate), propagation
delay, and optional impairments: loss, single-bit corruption, and
duplication.  Frames never reorder *within* one link (it is FIFO);
disorder in the simulator arises from loss/retransmission, from
multipath striping (:mod:`repro.netsim.multipath`), which is exactly the
paper's taxonomy of disordering causes (Section 1), and — when a
``reorder`` policy from :mod:`repro.netsim.adversary` is plugged in —
from pathological delivery models (almost-sorted displacement,
interrupt-coalescing batch inversion) applied to arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.netsim.events import EventLoop
from repro.netsim.rng import corrupt_bytes, default_rng
from repro.obs import Gauge, Tallies, declare
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime

if TYPE_CHECKING:
    import random

    from repro.netsim.adversary import ReorderPolicy

__all__ = ["Link", "LinkStats"]

# Aggregated across every link: each link publishes its own LinkStats'
# growth.  What a send can move, then what an arrival can.
_SENT = Tallies({
    "stats.frames_in": ("netsim", "link.frames_in", "frames offered to links"),
    "stats.frames_lost": ("netsim", "link.frames_lost", "frames dropped by loss"),
    "stats.frames_corrupted": ("netsim", "link.frames_corrupted", "frames bit-corrupted"),
    "stats.frames_duplicated": ("netsim", "link.frames_duplicated", "frames duplicated"),
    "stats.frames_dropped_oversize": ("netsim", "link.frames_dropped_oversize", "frames over MTU"),
})
_ARRIVED = Tallies({
    "stats.frames_delivered": ("netsim", "link.frames_delivered", "frames delivered"),
    "stats.bytes_delivered": ("netsim", "link.bytes_delivered", "bytes delivered"),
})
_INFLIGHT = declare(Gauge, "netsim", "link.inflight_frames", "frames serializing/propagating")

Deliver = Callable[[bytes], None]


@dataclass
class LinkStats:
    """Per-link counters."""

    frames_in: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    frames_corrupted: int = 0
    frames_duplicated: int = 0
    frames_dropped_oversize: int = 0
    bytes_in: int = 0
    bytes_delivered: int = 0


@dataclass
class Link:
    """A point-to-point FIFO link.

    Attributes:
        loop: the event loop driving the simulation.
        deliver: downstream callback receiving each frame's bytes.
        rate_bps: transmission rate in bits/second.
        delay: propagation delay in seconds.
        mtu: maximum frame size in bytes; larger frames are dropped
            (option 1 of the fragmentation taxonomy, Section 3 — routers
            exist to avoid ever hitting this).
        loss_rate / corrupt_rate / dup_rate: independent per-frame
            impairment probabilities.
        rng: the link's private random stream.
        reorder: optional delivery-time policy (see
            :mod:`repro.netsim.adversary`); maps each frame's nominal
            arrival time to a possibly displaced release time, breaking
            the FIFO guarantee deterministically.
    """

    loop: EventLoop
    deliver: Deliver
    rate_bps: float = 155e6
    delay: float = 0.001
    mtu: int = 1500
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    dup_rate: float = 0.0
    rng: random.Random = field(default_factory=default_rng)
    reorder: ReorderPolicy | None = None
    stats: LinkStats = field(default_factory=LinkStats)

    _busy_until: float = field(default=0.0, init=False)

    def send(self, frame: bytes) -> None:
        """Queue one frame for transmission at the current sim time."""
        registry = obs_runtime._registry
        before = _SENT.read(self) if registry is not None else None
        journey = obs_provenance._tracker
        self.stats.frames_in += 1
        self.stats.bytes_in += len(frame)
        if len(frame) > self.mtu:
            self.stats.frames_dropped_oversize += 1
            if journey is not None:
                journey.frame("dropped", frame, t=self.loop.now, reason="oversize")
        elif self.loss_rate and self.rng.random() < self.loss_rate:
            self.stats.frames_lost += 1
            if journey is not None:
                journey.frame("dropped", frame, t=self.loop.now, reason="loss")
        else:
            if self.corrupt_rate and self.rng.random() < self.corrupt_rate:
                frame = corrupt_bytes(frame, self.rng)
                self.stats.frames_corrupted += 1
            if journey is not None:
                journey.frame("link_tx", frame, t=self.loop.now)
            start = max(self.loop.now, self._busy_until)
            tx_time = len(frame) * 8 / self.rate_bps
            self._busy_until = start + tx_time
            arrival = self._busy_until + self.delay
            if self.reorder is not None:
                arrival = max(self.reorder.release_time(arrival, self.loop.now), self.loop.now)

            copies = 1
            if self.dup_rate and self.rng.random() < self.dup_rate:
                copies = 2
                self.stats.frames_duplicated += 1
            for _ in range(copies):
                if registry is not None:
                    registry.instruments[_INFLIGHT].inc()
                self.loop.at(arrival, lambda f=frame: self._arrive(f))
        if before is not None:
            _SENT.publish(before, self)

    def _arrive(self, frame: bytes) -> None:
        registry = obs_runtime._registry
        before = _ARRIVED.read(self) if registry is not None else None
        self.stats.frames_delivered += 1
        self.stats.bytes_delivered += len(frame)
        if before is not None:
            registry.instruments[_INFLIGHT].dec()
            _ARRIVED.publish(before, self)
        journey = obs_provenance._tracker
        if journey is not None:
            journey.frame("link_rx", frame, t=self.loop.now)
        self.deliver(frame)
