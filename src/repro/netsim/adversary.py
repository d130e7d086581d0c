"""Deterministic adversarial network machinery (ROADMAP item 4).

The receiver is strict about what it accepts, but strictness proven
against random loss is not strictness proven against an *attacker*.
This module supplies the attack half of that proof as reusable netsim
machinery, all of it seeded and exactly reproducible:

- :class:`OverlapRewriter` — an on-path adversary that forges DATA
  chunks overlapping genuine ones with *different* bytes.  The attack
  classes mirror the inconsistent-fragment taxonomy of "Overlapping
  data in network protocols: bridging OS and NIDS reassembly gap"
  (PAPERS.md): same-range rewrites, subset and superset overlaps, and
  straddling overlaps that cross chunk boundaries.  TCP reassemblers
  famously *disagree* about which copy wins; the chunk receiver must
  instead detect the inconsistency and refuse to resolve it silently.
- :class:`AlmostSortedReorder` and :class:`InterruptCoalescingReorder`
  — pathological reorder models beyond multipath skew, per "Sorting
  Reordered Packets with Interrupt Coalescing" (PAPERS.md): traffic
  that is *almost* sorted except for bounded local displacement, and
  the batch-inverted delivery a coalescing NIC interrupt handler
  produces.  Both plug into :class:`~repro.netsim.link.Link` and
  :class:`~repro.netsim.router.ChunkRouter` via their ``reorder``
  seams.
- :class:`FrameFlood` — a rate-paced injector that pumps
  attacker-crafted frames into any ``send`` callable.  The frames
  themselves come from a factory supplied by the scenario layer
  (:mod:`repro.app.adversarial`), keeping this module below the
  transport in the layering DAG.

Nothing here is stochastic in the unseeded sense: every generator
draws from :func:`repro.netsim.rng.substream`, so an attack run is a
pure function of its seed — a failing invariant is a reproducible
counterexample, not an anecdote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.core.chunk import Chunk
from repro.core.errors import CodecError
from repro.core.packet import Packet
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.netsim.events import EventLoop
from repro.netsim.rng import default_rng
from repro.obs import Tallies
from repro.obs import runtime as obs_runtime

if TYPE_CHECKING:
    import random

__all__ = [
    "OVERLAP_KINDS",
    "ReorderPolicy",
    "AlmostSortedReorder",
    "InterruptCoalescingReorder",
    "OverlapRewriter",
    "OverlapStats",
    "FrameFlood",
]

_DISPLACED = Tallies(
    {"displaced": ("netsim", "adversary.frames_displaced", "frames delayed out of order")}
)
_COALESCED = Tallies(
    {"coalesced": ("netsim", "adversary.frames_coalesced", "frames batch-released")}
)
_ATTACKED = Tallies({
    "stats.frames_attacked": (
        "netsim", "adversary.frames_attacked", "frames given forged companions"
    )
})
_FORGED = Tallies(
    {"stats.forged_chunks": ("netsim", "adversary.forged_chunks", "overlapping chunks forged")}
)
_FLOODED = Tallies(
    {"injected": ("netsim", "adversary.frames_flooded", "attacker frames injected")}
)


# ----------------------------------------------------------------------
# Reorder models (pluggable Link/Router policies)
# ----------------------------------------------------------------------


class ReorderPolicy(Protocol):
    """Maps a frame's nominal arrival time to its (possibly reordered)
    release time.

    Implementations may be stateful (coalescing windows) but must be
    deterministic; *now* is the simulation clock at scheduling time and
    bounds the result from below (events cannot fire in the past).
    """

    def release_time(self, nominal: float, now: float) -> float:
        """The adjusted delivery time for a frame due at *nominal*."""
        ...


@dataclass
class AlmostSortedReorder:
    """Almost-sorted permutations: most frames in order, a bounded
    fraction locally displaced.

    The reordering papers in PAPERS.md observe that real internet
    reordering is overwhelmingly *local*: sequences arrive almost
    sorted, with a small fraction of elements displaced by a bounded
    distance (which is what makes sorting-based recovery cheap).  Each
    frame is independently late with probability *displacement_rate*,
    by an extra delay uniform in ``(0, max_skew]`` — enough to jump a
    handful of positions at typical serialization rates, never more.
    """

    displacement_rate: float = 0.2
    max_skew: float = 0.002
    rng: random.Random = field(default_factory=default_rng)
    displaced: int = 0

    def release_time(self, nominal: float, now: float) -> float:
        before = _DISPLACED.read(self) if obs_runtime._registry is not None else None
        if self.displacement_rate and self.rng.random() < self.displacement_rate:
            self.displaced += 1
            nominal += self.rng.random() * self.max_skew
        if before is not None:
            _DISPLACED.publish(before, self)
        return max(nominal, now)


@dataclass
class InterruptCoalescingReorder:
    """Batch-inverted delivery under NIC interrupt coalescing.

    A coalescing NIC raises one interrupt per *window*, and a driver
    that walks its descriptor ring from the most recent entry delivers
    the batch newest-first.  Frames whose nominal arrival falls in one
    window are all released at the window boundary, in inverted order
    (later arrivals first), which is the pathological almost-reversed
    pattern of "Sorting Reordered Packets with Interrupt Coalescing".

    Inversion is expressed as a decreasing epsilon offset per frame
    within the window, so the event loop's (time, seq) ordering yields
    LIFO without any buffering here.
    """

    window: float = 0.001
    invert: bool = True
    #: cap on distinguishable frames per window (offset resolution).
    max_batch: int = 4096
    coalesced: int = 0
    _window_end: float = field(default=-1.0, repr=False)
    _batch_index: int = field(default=0, repr=False)

    def release_time(self, nominal: float, now: float) -> float:
        before = _COALESCED.read(self) if obs_runtime._registry is not None else None
        boundary = math.ceil(nominal / self.window) * self.window
        if boundary != self._window_end:
            self._window_end = boundary
            self._batch_index = 0
        self._batch_index += 1
        self.coalesced += 1
        if before is not None:
            _COALESCED.publish(before, self)
        if not self.invert:
            return max(boundary, now)
        epsilon = self.window * 1e-6
        slot = self.max_batch - min(self._batch_index, self.max_batch)
        return max(boundary + slot * epsilon, now)


# ----------------------------------------------------------------------
# Overlap attacks against virtual reassembly
# ----------------------------------------------------------------------

#: The inconsistent-overlap taxonomy (NIDS-gap paper, PAPERS.md).
OVERLAP_KINDS: tuple[str, ...] = ("same-range", "subset", "superset", "straddle")


@dataclass
class OverlapStats:
    """What the rewriter did to the traffic it saw."""

    frames_seen: int = 0
    frames_attacked: int = 0
    forged_chunks: int = 0
    forged_by_kind: dict[str, int] = field(default_factory=dict)
    undecodable_frames: int = 0


@dataclass
class OverlapRewriter:
    """On-path adversary forging inconsistent overlapping DATA chunks.

    Sits on a delivery path (``link.deliver = rewriter.send``) and, per
    DATA chunk observed, forges a companion chunk whose C-level range
    overlaps the genuine one but whose payload bytes *differ* (each
    byte XOR ``taint``).  The forged chunk is wire-valid — headers
    decode, LEN/SIZE agree with the payload — so nothing upstream of
    virtual reassembly can reject it; the receiver must catch the
    *semantic* inconsistency.

    Attributes:
        deliver: the downstream sink for both genuine and forged frames.
        kinds: overlap classes drawn from (subset of ``OVERLAP_KINDS``).
        attack_rate: per-DATA-chunk forgery probability.
        forge_first: deliver the forged frame *before* the genuine one
            (the poison-first variant: placement sees attacker bytes
            first, and honest retransmissions become the "conflict").
        taint: XOR mask applied to forged payload bytes (any nonzero
            value guarantees inconsistency).
    """

    deliver: Callable[[bytes], None]
    kinds: tuple[str, ...] = OVERLAP_KINDS
    attack_rate: float = 1.0
    forge_first: bool = False
    taint: int = 0xA5
    rng: random.Random = field(default_factory=default_rng)
    stats: OverlapStats = field(default_factory=OverlapStats)

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(OVERLAP_KINDS)
        if unknown:
            raise ValueError(f"unknown overlap kinds: {sorted(unknown)}")
        if not 0 < self.taint < 256:
            raise ValueError(f"taint must be a nonzero byte, got {self.taint}")

    def send(self, frame: bytes) -> None:
        """Forward one frame, possibly preceded/followed by forgeries."""
        before = _ATTACKED.read(self) if obs_runtime._registry is not None else None
        self.stats.frames_seen += 1
        forged = self._forge_frames(frame)
        if forged:
            self.stats.frames_attacked += 1
        if before is not None:
            _ATTACKED.publish(before, self)
        if self.forge_first:
            for fake in forged:
                self.deliver(fake)
            self.deliver(frame)
        else:
            self.deliver(frame)
            for fake in forged:
                self.deliver(fake)

    # ------------------------------------------------------------------

    def _forge_frames(self, frame: bytes) -> list[bytes]:
        try:
            packet = Packet.decode(frame)
        except CodecError:
            self.stats.undecodable_frames += 1
            return []
        forged: list[Chunk] = []
        for chunk in packet.chunks:
            if not chunk.is_data:
                continue
            if self.attack_rate < 1.0 and self.rng.random() >= self.attack_rate:
                continue
            kind = self.kinds[self.rng.randrange(len(self.kinds))]
            forged.append(self.forge(chunk, kind))
        if not forged:
            return []
        return [Packet(chunks=[fake]).encode() for fake in forged]

    def forge(self, chunk: Chunk, kind: str) -> Chunk:
        """One forged chunk overlapping *chunk* per the given *kind*.

        The forged range is expressed at all three framing levels with
        self-consistent deltas (C.SN − T.SN and C.SN − X.SN preserved),
        so per-chunk consistency checks cannot reject it a priori —
        only the byte-level overlap comparison can.
        """
        before = _FORGED.read(self) if obs_runtime._registry is not None else None
        self.stats.forged_chunks += 1
        self.stats.forged_by_kind[kind] = self.stats.forged_by_kind.get(kind, 0) + 1
        if before is not None:
            _FORGED.publish(before, self)
        length = chunk.length
        if kind == "subset" and length > 1:
            offset = self.rng.randrange(length - 1)
            units = 1 + self.rng.randrange(length - offset - 1) if length - offset > 1 else 1
        elif kind == "superset":
            offset = -1 if chunk.c_sn > 0 and chunk.t_sn > 0 and chunk.x_sn > 0 else 0
            units = length - offset
        elif kind == "straddle":
            # Overlap the tail and extend past the end of the chunk.
            offset = max(length - 1, 0)
            units = 2
        else:  # same-range (and subset of a single-unit chunk)
            offset = 0
            units = length
        payload = self._taint_units(chunk, offset, units)
        return Chunk(
            type=ChunkType.DATA,
            size=chunk.size,
            length=units,
            c=self._shift(chunk.c, offset, close=False),
            t=self._shift(chunk.t, offset, close=False),
            x=self._shift(chunk.x, offset, close=False),
            payload=payload,
        )

    def _shift(self, label: FramingTuple, offset: int, close: bool) -> FramingTuple:
        return FramingTuple(label.ident, label.sn + offset, close)

    def _taint_units(self, chunk: Chunk, offset: int, units: int) -> bytes:
        """Forged payload for *units* atomic units starting at *offset*
        (relative to the chunk); units outside the chunk extend its last
        byte pattern, units inside are the real bytes XOR ``taint``."""
        unit_bytes = chunk.unit_bytes
        out = bytearray(units * unit_bytes)
        for index in range(units):
            source = min(max(offset + index, 0), chunk.length - 1)
            start = source * unit_bytes
            piece = chunk.payload[start : start + unit_bytes]
            out[index * unit_bytes : (index + 1) * unit_bytes] = bytes(
                b ^ self.taint for b in piece
            )
        return bytes(out)


# ----------------------------------------------------------------------
# Floods
# ----------------------------------------------------------------------


@dataclass
class FrameFlood:
    """Rate-paced injection of attacker frames into a send path.

    The *frames* factory maps an injection index to wire bytes (or
    ``None`` to stop early); what those bytes mean — a signaling storm,
    C.ID churn, slow-loris keep-alives — is the scenario layer's
    business.  This class only owns the pacing, which is what makes a
    flood a *flood*: a deterministic arrival process the target cannot
    influence.
    """

    loop: EventLoop
    send: Callable[[bytes], None]
    frames: Callable[[int], bytes | None]
    interval: float = 1e-4
    count: int = 1000
    start: float = 0.0
    injected: int = 0
    stopped: bool = False

    def launch(self) -> None:
        """Schedule the whole flood onto the event loop."""
        for index in range(self.count):
            when = max(self.start + index * self.interval, self.loop.now)
            self.loop.at(when, self._make_shot(index))

    def _make_shot(self, index: int) -> Callable[[], None]:
        def shoot() -> None:
            if self.stopped:
                return
            frame = self.frames(index)
            if frame is None:
                self.stopped = True
                return
            before = _FLOODED.read(self) if obs_runtime._registry is not None else None
            self.injected += 1
            if before is not None:
                _FLOODED.publish(before, self)
            self.send(frame)

        return shoot
