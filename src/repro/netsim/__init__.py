"""Discrete-event network substrate.

Replaces the paper's AURORA testbed hardware: links with rate, delay,
MTU and impairments; the reorder models a link can apply; a shared
bottleneck; and chunk-aware fragmenting routers implementing the three
Figure 4 re-enveloping strategies.  Multipath striping with skew (the
8x155 Mbps scenario of Section 1), Turner's drop policy, route changes
and the receiver trace are figure models in :mod:`repro.paper`.
"""

from repro.netsim.bottleneck import (
    BottleneckPort,
    SharedBottleneck,
    build_shared_bottleneck,
)
from repro.netsim.events import EventLoop
from repro.netsim.link import Link, LinkStats
from repro.netsim.rng import corrupt_bytes, default_rng, substream
from repro.netsim.router import ChunkRouter, RepackMode, RouterStats
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import ChunkPath, HopSpec, build_chunk_path

__all__ = [
    "EventLoop",
    "ShardedLoop",
    "Link",
    "LinkStats",
    "ChunkRouter",
    "RouterStats",
    "RepackMode",
    "substream",
    "default_rng",
    "corrupt_bytes",
    "HopSpec",
    "ChunkPath",
    "build_chunk_path",
    "BottleneckPort",
    "SharedBottleneck",
    "build_shared_bottleneck",
]
