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
from repro.obs import counter, gauge, journey_handle

if TYPE_CHECKING:
    from repro.netsim.adversary import ReorderPolicy

__all__ = ["ChunkRouter", "RouterStats", "RepackMode"]

_OBS_FRAMES_IN = counter("netsim", "router.frames_in", "frames arriving at routers")
_OBS_FRAMES_OUT = counter("netsim", "router.frames_out", "frames forwarded by routers")
_OBS_CHUNKS_IN = counter("netsim", "router.chunks_in", "chunks unpacked at routers")
_OBS_CHUNKS_OUT = counter("netsim", "router.chunks_out", "chunks re-enveloped out")
_OBS_CHUNKS_SPLIT = counter("netsim", "router.chunks_split", "Appendix C splits performed")
_OBS_CHUNKS_MERGED = counter("netsim", "router.chunks_merged", "Appendix D merges performed")
_OBS_DECODE_FAILURES = counter("netsim", "router.decode_failures", "undecodable frames")
_OBS_PENDING = gauge("netsim", "router.pending_chunks", "chunks batched awaiting flush")
_OBS_JOURNEY = journey_handle()

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
        self.stats.frames_in += 1
        self.stats.bytes_in += len(frame)
        _OBS_FRAMES_IN.inc()
        try:
            packet = Packet.decode(frame)
        except CodecError:
            self.stats.decode_failures += 1
            _OBS_DECODE_FAILURES.inc()
            return
        self.stats.chunks_in += len(packet.chunks)
        _OBS_CHUNKS_IN.inc(len(packet.chunks))
        if _OBS_JOURNEY:
            for chunk in packet.chunks:
                if chunk.is_data:
                    _OBS_JOURNEY.chunk("routed", chunk, t=self.loop.now)
        if self.batch_window > 0:
            self._pending.extend(packet.chunks)
            _OBS_PENDING.set(len(self._pending))
            if self._budget_filled() or not self._flush_scheduled:
                if self._budget_filled():
                    self._flush()
                else:
                    self._flush_scheduled = True
                    self.loop.schedule(self.batch_window, self._timed_flush)
        else:
            self._emit(packet.chunks)

    def _budget_filled(self) -> bool:
        wire = sum(ch.wire_bytes for ch in self._pending)
        return wire >= self.out_mtu - PACKET_HEADER_BYTES

    def _timed_flush(self) -> None:
        self._flush_scheduled = False
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        chunks, self._pending = self._pending, []
        _OBS_PENDING.set(0)
        self._emit(chunks)

    def _emit(self, chunks: list[Chunk]) -> None:
        if not chunks:
            return
        if self.mode == "reassemble":
            before = len(chunks)
            try:
                chunks = coalesce(chunks)
            except ReassemblyError:
                self.stats.batches_unmerged += 1  # forwarded as "repack" would
            self.stats.chunks_merged += before - len(chunks)
            _OBS_CHUNKS_MERGED.inc(before - len(chunks))
        try:
            packets = self._pack(chunks)
        except FragmentationError:
            # Some chunk cannot be cut to this MTU: drop it, forward the rest.
            chunks = [chunk for chunk in chunks if self._forwardable(chunk)]
            packets = self._pack(chunks)
        out_chunks = sum(len(p.chunks) for p in packets)
        self.stats.chunks_split += max(0, out_chunks - len(chunks))
        self.stats.chunks_out += out_chunks
        _OBS_CHUNKS_SPLIT.inc(max(0, out_chunks - len(chunks)))
        _OBS_CHUNKS_OUT.inc(out_chunks)
        for index, packet in enumerate(packets):
            data = packet.encode()
            self.stats.frames_out += 1
            self.stats.bytes_out += len(data)
            _OBS_FRAMES_OUT.inc()
            delay = self.processing_delay * (index + 1)
            if self.reorder is not None:
                nominal = self.loop.now + delay
                out = max(self.reorder.release_time(nominal, self.loop.now), self.loop.now)
                self.loop.at(out, lambda d=data: self.forward(d))
            else:
                self.loop.schedule(delay, lambda d=data: self.forward(d))

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
