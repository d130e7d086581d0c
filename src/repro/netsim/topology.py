"""Topology assembly: sender -> links/routers -> receiver.

Builds the internetworking paths used by the Figure 4 and Table 1
experiments: a sequence of networks with per-hop MTUs, joined by
chunk-aware routers that re-envelope chunks for the next hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.router import ChunkRouter, RepackMode
from repro.netsim.rng import substream

if TYPE_CHECKING:
    import random

__all__ = ["HopSpec", "ChunkPath", "build_chunk_path"]


@dataclass(frozen=True, slots=True)
class HopSpec:
    """One network hop on a path."""

    mtu: int
    rate_bps: float = 155e6
    delay: float = 0.001
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    dup_rate: float = 0.0

    def link(
        self, loop: EventLoop, deliver: Callable[[bytes], None], rng: random.Random
    ) -> Link:
        """The :class:`Link` this hop describes, drawing impairments from *rng*."""
        return Link(
            loop=loop,
            deliver=deliver,
            rate_bps=self.rate_bps,
            delay=self.delay,
            mtu=self.mtu,
            loss_rate=self.loss_rate,
            corrupt_rate=self.corrupt_rate,
            dup_rate=self.dup_rate,
            rng=rng,
        )


@dataclass
class ChunkPath:
    """A sender-to-receiver path of links joined by chunk routers."""

    loop: EventLoop
    entry: Callable[[bytes], None]
    links: list[Link]
    routers: list[ChunkRouter]

    def send(self, frame: bytes) -> None:
        self.entry(frame)

    def run(self) -> float:
        """Drive the simulation to quiescence, draining router batches."""
        time = self.loop.run()
        for router in self.routers:
            router.flush_now()
        return self.loop.run()

    @property
    def first_mtu(self) -> int:
        return self.links[0].mtu


def build_chunk_path(
    loop: EventLoop,
    hops: list[HopSpec],
    deliver: Callable[[bytes], None],
    mode: RepackMode = "repack",
    batch_window: float = 0.0,
    seed: int = 0,
) -> ChunkPath:
    """Chain ``link -> router -> link -> ... -> deliver`` per *hops*.

    Routers sit between consecutive hops and re-envelope chunks for the
    next hop's MTU using the given Figure 4 *mode*.
    """
    if not hops:
        raise ValueError("a path needs at least one hop")
    links: list[Link] = []
    routers: list[ChunkRouter] = []

    downstream: Callable[[bytes], None] = deliver
    # Build from the last hop backwards so each stage knows its successor.
    for position in range(len(hops) - 1, -1, -1):
        hop = hops[position]
        link = hop.link(loop, downstream, substream(seed, "hop", position))
        links.insert(0, link)
        if position > 0:
            router = ChunkRouter(
                loop=loop,
                forward=link.send,
                out_mtu=hop.mtu,
                mode=mode,
                batch_window=batch_window,
            )
            routers.insert(0, router)
            downstream = router.receive
        else:
            downstream = link.send

    return ChunkPath(loop=loop, entry=downstream, links=links, routers=routers)
