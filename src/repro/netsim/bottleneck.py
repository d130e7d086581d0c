"""Shared-bottleneck topology: N host pairs over one contended link.

The multiplexed-endpoint experiments need the shape the paper's AURORA
scenario implies but the point-to-point :mod:`repro.netsim.topology`
paths cannot express: many conversations whose packets *share* one
bottleneck link (and its loss process), so fairness and lock-up
avoidance are properties of the shared resource, not of any single
connection.

:class:`SharedBottleneck` wires N host pairs through one forward
bottleneck link and one reverse (acknowledgment) link.  Each pair gets
a :class:`BottleneckPort` with a private access link into the forward
bottleneck.  At the far side a chunk-aware demultiplexer — the same
decode-once, route-by-C.ID move :class:`~repro.transport.endpoint.
ChunkEndpoint` makes — splits every bottleneck frame into per-port
packets by each chunk's C.ID, because one envelope may carry chunks for
several pairs (Appendix A).  The reverse link routes ACK packets back
to the owning pair the same way.

With a single attached pair (one sender endpoint hosting hundreds of
conversations) the demux is a pass-through: the default route sends
every C.ID to port 0 and no re-enveloping occurs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.chunk import Chunk
from repro.core.errors import CodecError
from repro.core.packet import Packet
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.netsim.topology import HopSpec
from repro.obs import Tallies
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime

__all__ = ["BottleneckPort", "SharedBottleneck", "build_shared_bottleneck"]

_TALLIES = Tallies({
    "frames_forward": ("netsim", "bottleneck.frames_forward", "frames through the bottleneck"),
    "frames_reverse": ("netsim", "bottleneck.frames_reverse", "frames through the reverse link"),
    "split_frames": (
        "netsim", "bottleneck.split_frames", "frames re-enveloped for more than one port"
    ),
    "misrouted_chunks": (
        "netsim", "bottleneck.misrouted_chunks", "chunks with no route to any port"
    ),
    "undecodable_frames": (
        "netsim", "bottleneck.undecodable_frames", "frames the demux could not decode"
    ),
})


@dataclass
class BottleneckPort:
    """One host pair's attachment point.

    The pair's *sender* host transmits via :meth:`send` (through the
    pair's private access link into the shared bottleneck) and receives
    demultiplexed reverse traffic on *deliver_reverse*; the *receiver*
    host transmits via :meth:`send_reverse` and receives its share of
    forward traffic on *deliver_forward*.
    """

    index: int
    deliver_forward: Callable[[bytes], None]
    deliver_reverse: Callable[[bytes], None]
    access: Link
    _bottleneck: "SharedBottleneck"

    def send(self, frame: bytes) -> None:
        """Sender-host egress: access link, then the shared bottleneck."""
        self.access.send(frame)

    def send_reverse(self, frame: bytes) -> None:
        """Receiver-host egress onto the shared reverse link."""
        self._bottleneck.reverse_link.send(frame)


@dataclass
class SharedBottleneck:
    """N host pairs contending for one forward and one reverse link."""

    loop: EventLoop
    forward_link: Link = field(init=False)
    reverse_link: Link = field(init=False)
    bottleneck_spec: HopSpec = field(default_factory=lambda: HopSpec(mtu=1500))
    reverse_spec: HopSpec | None = None
    seed: int = 0

    ports: list[BottleneckPort] = field(default_factory=list, init=False)
    #: C.ID -> port index; unbound C.IDs fall back to port 0.
    routes: dict[int, int] = field(default_factory=dict, init=False)
    frames_forward: int = 0
    frames_reverse: int = 0
    split_frames: int = 0
    misrouted_chunks: int = 0
    undecodable_frames: int = 0

    def __post_init__(self) -> None:
        spec = self.bottleneck_spec
        self.forward_link = spec.link(
            self.loop, self._demux_forward, substream(self.seed, "bottleneck", 0)
        )
        rev = self.reverse_spec if self.reverse_spec is not None else spec
        self.reverse_link = rev.link(
            self.loop, self._demux_reverse, substream(self.seed, "bottleneck-reverse", 0)
        )

    # ------------------------------------------------------------------

    def attach_pair(
        self,
        deliver_forward: Callable[[bytes], None],
        deliver_reverse: Callable[[bytes], None],
        access: HopSpec | None = None,
    ) -> BottleneckPort:
        """Wire one (sender host, receiver host) pair in; returns its port."""
        spec = access if access is not None else HopSpec(mtu=self.forward_link.mtu)
        index = len(self.ports)
        access_link = spec.link(
            self.loop, self.forward_link.send, substream(self.seed, "access", index)
        )
        port = BottleneckPort(
            index=index,
            deliver_forward=deliver_forward,
            deliver_reverse=deliver_reverse,
            access=access_link,
            _bottleneck=self,
        )
        self.ports.append(port)
        return port

    def bind(self, connection_id: int, port: BottleneckPort) -> None:
        """Route a conversation's C.ID to *port* in both directions."""
        self.routes[connection_id] = port.index

    def run(self) -> float:
        """Drive the simulation to quiescence."""
        return self.loop.run()

    # ------------------------------------------------------------------

    def _demux_forward(self, frame: bytes) -> None:
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        self.frames_forward += 1
        self._demux(frame, forward=True)
        if before is not None:
            _TALLIES.publish(before, self)

    def _demux_reverse(self, frame: bytes) -> None:
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        self.frames_reverse += 1
        self._demux(frame, forward=False)
        if before is not None:
            _TALLIES.publish(before, self)

    def _demux(self, frame: bytes, forward: bool) -> None:
        """Split one shared-link frame into per-port packets by C.ID."""
        if not self.ports:
            return
        if len(self.ports) == 1 and not self.routes:
            # Single-pair fast path: nothing to split, deliver verbatim.
            port = self.ports[0]
            (port.deliver_forward if forward else port.deliver_reverse)(frame)
            return
        try:
            packet = Packet.decode(frame)
        except CodecError:
            self.undecodable_frames += 1
            return
        journey = obs_provenance._tracker
        by_port: dict[int, list[Chunk]] = {}
        for chunk in packet.chunks:
            index = self.routes.get(chunk.c_id, 0)
            if index >= len(self.ports):
                self.misrouted_chunks += 1
                continue
            if journey is not None and chunk.is_data:
                journey.chunk("routed", chunk, t=self.loop.now, port=index)
            by_port.setdefault(index, []).append(chunk)
        if len(by_port) > 1:
            self.split_frames += 1
        for index, chunks in by_port.items():
            port = self.ports[index]
            sink = port.deliver_forward if forward else port.deliver_reverse
            sink(Packet(chunks=chunks).encode())


def build_shared_bottleneck(
    loop: EventLoop,
    pairs: list[tuple[Callable[[bytes], None], Callable[[bytes], None]]],
    bottleneck: HopSpec | None = None,
    reverse: HopSpec | None = None,
    access: HopSpec | None = None,
    seed: int = 0,
) -> SharedBottleneck:
    """Build a shared bottleneck and attach every (forward, reverse) pair.

    Each element of *pairs* is ``(deliver_forward, deliver_reverse)`` —
    typically ``(receiver_endpoint.receive_packet,
    sender_endpoint.receive_packet)``.  Bind conversations to ports with
    :meth:`SharedBottleneck.bind` as they are opened.
    """
    topology = SharedBottleneck(
        loop=loop,
        bottleneck_spec=bottleneck if bottleneck is not None else HopSpec(mtu=1500),
        reverse_spec=reverse,
        seed=seed,
    )
    for deliver_forward, deliver_reverse in pairs:
        topology.attach_pair(deliver_forward, deliver_reverse, access=access)
    return topology
