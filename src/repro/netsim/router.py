"""Chunk-aware routers: fragmentation inside the network (Section 3.1).

"Chunk fragmentation is easiest to understand if we think of packets as
envelopes that carry chunks.  Whenever we must change from one packet
size to another packet size, it is as if chunks are emptied from one
size of envelope and placed in another size of envelope."

A :class:`ChunkRouter` joins two links of (possibly) different MTUs.
Toward a smaller MTU it splits chunks (Appendix C).  Toward a larger
MTU it applies one of the three Figure 4 strategies:

- ``"one-per-packet"`` — method 1: one small chunk per large packet;
- ``"repack"`` — method 2: combine multiple chunks per large packet;
- ``"reassemble"`` — method 3: chunk reassembly (Appendix D) first.

All three are transparent to the receiver: it sees well-formed chunks
regardless of how many routers re-enveloped them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Literal

from repro.core.chunk import Chunk
from repro.core.errors import CodecError, FragmentationError, ReassemblyError
from repro.core.fragment import fragment_for_mtu
from repro.core.packet import Packet, pack_chunks
from repro.core.reassemble import coalesce
from repro.core.types import PACKET_HEADER_BYTES
from repro.netsim.events import EventLoop
from repro.obs import Gauge, Tallies, declare
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime

if TYPE_CHECKING:
    from repro.netsim.adversary import ReorderPolicy

__all__ = ["ChunkRouter", "RouterStats", "RepackMode"]

#: Published by :meth:`ChunkRouter.receive` before it hands chunks on,
#: and by :meth:`ChunkRouter._emit` for what it sends.
_TALLIES = Tallies({
    "stats.frames_in": ("netsim", "router.frames_in", "frames arriving at routers"),
    "stats.frames_out": ("netsim", "router.frames_out", "frames forwarded by routers"),
    "stats.chunks_in": ("netsim", "router.chunks_in", "chunks unpacked at routers"),
    "stats.chunks_out": ("netsim", "router.chunks_out", "chunks re-enveloped out"),
    "stats.chunks_split": ("netsim", "router.chunks_split", "Appendix C splits performed"),
    "stats.chunks_merged": ("netsim", "router.chunks_merged", "Appendix D merges performed"),
    "stats.decode_failures": ("netsim", "router.decode_failures", "undecodable frames"),
})
_PENDING = declare(Gauge, "netsim", "router.pending_chunks", "chunks batched awaiting flush")

RepackMode = Literal["repack", "one-per-packet", "reassemble"]


@dataclass
class RouterStats:
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    chunks_in: int = 0
    chunks_out: int = 0
    chunks_split: int = 0
    chunks_merged: int = 0
    decode_failures: int = 0
    #: wire-valid chunks the outgoing MTU cannot carry (an atomic unit
    #: larger than a packet, a fragment whose SN would leave its field).
    chunks_unforwardable: int = 0
    #: batches a ``"reassemble"`` router forwarded un-merged because two
    #: chunks overlapped without being duplicates (a retransmission re-cut
    #: upstream, or a forgery): the end host judges overlaps, not the router.
    batches_unmerged: int = 0


@dataclass
class ChunkRouter:
    """Store-and-forward chunk re-enveloping router.

    Attributes:
        loop: simulation event loop.
        forward: the downstream ``send`` callable (usually a Link).
        out_mtu: MTU of the outgoing direction.
        mode: Figure 4 strategy used when combining is possible.
        processing_delay: per-frame forwarding latency in seconds.
        batch_window: when > 0, chunks are held up to this many seconds
            so chunks from several arriving packets can share outgoing
            envelopes (methods 2 and 3 pay off across packets); 0 means
            strictly per-frame operation.
        reorder: optional delivery-time policy applied to outgoing
            frames (see :mod:`repro.netsim.adversary`), modelling a
            router whose egress scheduling disorders traffic.
    """

    loop: EventLoop
    forward: Callable[[bytes], None]
    out_mtu: int
    mode: RepackMode = "repack"
    processing_delay: float = 5e-6
    batch_window: float = 0.0
    reorder: ReorderPolicy | None = None
    stats: RouterStats = field(default_factory=RouterStats)

    _pending: list[Chunk] = field(default_factory=list, init=False)
    _flush_scheduled: bool = field(default=False, init=False)

    def receive(self, frame: bytes) -> None:
        """Handle one arriving frame (wire bytes of a chunk packet)."""
        registry = obs_runtime._registry
        before = _TALLIES.read(self) if registry is not None else None
        self.stats.frames_in += 1
        self.stats.bytes_in += len(frame)
        try:
            chunks = Packet.decode(frame).chunks
        except CodecError:
            self.stats.decode_failures += 1
            if before is not None:
                _TALLIES.publish(before, self)
            return
        self.stats.chunks_in += len(chunks)
        if before is not None:
            _TALLIES.publish(before, self)
        journey = obs_provenance._tracker
        if journey is not None:
            for chunk in chunks:
                if chunk.is_data:
                    journey.chunk("routed", chunk, t=self.loop.now)
        if self.batch_window > 0:
            # Waiting chunks that fit a packet go before a chunk that fits one
            # alone but not behind them; a chunk that must be cut waits with them.
            for chunk in chunks:
                pending = self._pending
                if pending and self._fits([chunk]) and self._fits(pending):
                    if not self._fits([*pending, chunk]):
                        self._flush()
                self._pending.append(chunk)
            if registry is not None:
                registry.instruments[_PENDING].set(len(self._pending))
            if Packet(self._pending).wire_bytes >= self.out_mtu:
                self._flush()
            elif not self._flush_scheduled:
                self._flush_scheduled = True
                self.loop.schedule(self.batch_window, self._timed_flush)
        else:
            self._emit(chunks)

    def _fits(self, chunks: list[Chunk]) -> bool:
        # Sized as the codec writes them: elided ED headers left out.
        return Packet(chunks).wire_bytes <= self.out_mtu

    def _timed_flush(self) -> None:
        self._flush_scheduled = False
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        chunks, self._pending = self._pending, []
        registry = obs_runtime._registry
        if registry is not None:
            registry.instruments[_PENDING].set(0)
        self._emit(chunks)

    def _emit(self, chunks: list[Chunk]) -> None:
        if not chunks:
            return
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        if self.mode == "reassemble":
            received = len(chunks)
            try:
                chunks = coalesce(chunks)
            except ReassemblyError:
                self.stats.batches_unmerged += 1  # forwarded as "repack" would
            self.stats.chunks_merged += received - len(chunks)
        try:
            packets = self._pack(chunks)
        except FragmentationError:
            # Some chunk cannot be cut to this MTU: drop it, forward the rest.
            chunks = [chunk for chunk in chunks if self._forwardable(chunk)]
            packets = self._pack(chunks)
        out_chunks = sum(len(p.chunks) for p in packets)
        self.stats.chunks_split += max(0, out_chunks - len(chunks))
        self.stats.chunks_out += out_chunks
        for index, packet in enumerate(packets):
            data = packet.encode()
            self.stats.frames_out += 1
            self.stats.bytes_out += len(data)
            delay = self.processing_delay * (index + 1)
            if self.reorder is not None:
                nominal = self.loop.now + delay
                out = max(self.reorder.release_time(nominal, self.loop.now), self.loop.now)
                self.loop.at(out, lambda d=data: self.forward(d))
            else:
                self.loop.schedule(delay, lambda d=data: self.forward(d))
        if before is not None:
            _TALLIES.publish(before, self)

    def _pack(self, chunks: list[Chunk]) -> list[Packet]:
        if self.mode == "one-per-packet":
            return [p for chunk in chunks for p in pack_chunks([chunk], self.out_mtu)]
        return pack_chunks(chunks, self.out_mtu)

    def _forwardable(self, chunk: Chunk) -> bool:
        try:
            fragment_for_mtu(chunk, self.out_mtu, PACKET_HEADER_BYTES)
        except FragmentationError:
            self.stats.chunks_unforwardable += 1
            return False
        return True

    def flush_now(self) -> None:
        """Force out any batched chunks (end-of-run drain)."""
        if self._pending:
            self._flush()
