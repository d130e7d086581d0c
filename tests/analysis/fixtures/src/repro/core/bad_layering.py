"""Fixture: a core module peeking upward across the architecture DAG."""

from repro.core.chunk import Chunk  # near-miss: same package, allowed
from repro.obs import Tallies  # near-miss: meta layer, importable anywhere
from repro.transport.receiver import ChunkTransportReceiver  # TP: upward import

__all__ = ["peek"]

_TALLIES = Tallies({"peeks": ("core", "fixture.peeks", "fixture counter")})


def peek(chunk: Chunk) -> ChunkTransportReceiver:
    receiver = ChunkTransportReceiver()
    receiver.receive_chunk(chunk)
    return receiver
