"""A transport protocol built on chunks: signaled connections, per-TPDU
WSC-2 error detection, identifier-preserving retransmission, and an
immediate-processing receiver with no reorder buffer.
"""

from repro.transport.connection import (
    ConnectionConfig,
    build_signaling_chunk,
    parse_signaling_chunk,
)
from repro.transport.acks import build_ack_chunk, parse_ack_chunk
from repro.transport.egress import EgressPacker
from repro.transport.endpoint import (
    ChunkEndpoint,
    Connection,
    ConnectionState,
    ConnectionTable,
    EndpointEvents,
)
from repro.transport.receiver import ChunkTransportReceiver, ReceiverEvents
from repro.transport.shard import (
    EndpointShard,
    ShardedEndpoint,
    shard_for,
)
from repro.transport.reliability import (
    AdaptiveTpduPolicy,
    ReliableReceiver,
    ReliableSender,
)
from repro.transport.sender import ChunkTransportSender

__all__ = [
    "ConnectionConfig",
    "build_signaling_chunk",
    "parse_signaling_chunk",
    "ChunkTransportSender",
    "ChunkTransportReceiver",
    "ReceiverEvents",
    "build_ack_chunk",
    "parse_ack_chunk",
    "ReliableSender",
    "ReliableReceiver",
    "AdaptiveTpduPolicy",
    "ChunkEndpoint",
    "Connection",
    "ConnectionState",
    "ConnectionTable",
    "EndpointEvents",
    "shard_for",
    "EndpointShard",
    "ShardedEndpoint",
    "EgressPacker",
]
