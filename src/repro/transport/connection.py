"""Connection model and signaling.

"The connection ID is intended to refer to a single, unmultiplexed
application-to-application conversation [FELD 90].  ...  The beginning
of a connection is indicated with a special signaling message
(connection establishment) rather than an SN of zero" (Section 2).

Appendix A moves seldom-changing header facts into signaling: "when a
connection is formed, the value of the SIZE field of each chunk TYPE can
be carried in the signaling message", and "the C.ST bit also could be
sent as a signaling message".  :class:`ConnectionConfig` is that
signaled state; it round-trips through a SIGNALING chunk.  The header
transforms it would enable are a figure model (:mod:`repro.paper.compress`)
no transfer runs, so the payload's flag word is zero on the wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.chunk import Chunk
from repro.core.errors import SignalingError
from repro.core.types import WORD_BYTES, ChunkType
from repro.core.wire_table import SIGNALING_PAYLOAD

__all__ = ["ConnectionConfig", "build_signaling_chunk", "parse_signaling_chunk"]

# conn id, unit words, tpdu units, flags (zero), 2 reserved
_SIG = struct.Struct(SIGNALING_PAYLOAD.struct_format)
# Whole words, so the chunk needs no padding (control LEN counts words).
assert _SIG.size % WORD_BYTES == 0
_SIG_WORDS = _SIG.size // WORD_BYTES
_SIGNALING = ChunkType.SIGNALING  # an enum member read is ~0.1 µs on CPython 3.11


@dataclass(frozen=True)
class ConnectionConfig:
    """Per-connection parameters carried by establishment signaling.

    Attributes:
        connection_id: the C.ID of the (unmultiplexed) conversation.
        unit_words: SIZE for DATA chunks (atomic-unit words) — e.g. 2
            when payloads are 64-bit cipher blocks.
        tpdu_units: TPDU length in atomic units (the error-control
            framing granularity).
    """

    connection_id: int
    unit_words: int = 1
    tpdu_units: int = 256

    @property
    def unit_bytes(self) -> int:
        return self.unit_words * WORD_BYTES

    @property
    def tpdu_bytes(self) -> int:
        return self.tpdu_units * self.unit_bytes


def build_signaling_chunk(config: ConnectionConfig) -> Chunk:
    """Connection-establishment chunk carrying the signaled parameters.

    One pack, which holds every field to its width (an out-of-range C.ID
    raises ``struct.error``), and one unvalidated record around it."""
    payload = _SIG.pack(
        config.connection_id, config.unit_words, min(config.tpdu_units, 0xFFFF), 0, 0, 0
    )
    return Chunk._make(
        _SIGNALING, 1, _SIG_WORDS, config.connection_id, 0, False, 0, 0, False, 0, 0, False,
        payload,
    )


def parse_signaling_chunk(chunk: Chunk) -> ConnectionConfig:
    """Recover the signaled parameters from an establishment chunk.

    Strict by design: the payload is exactly one signaling record whose
    C.ID is the header's, with the flag word and reserved bytes zero.  A
    corrupted establishment must fail loudly here — silently accepting it
    would install wrong per-connection SIZE/TPDU parameters, or key the
    conversation under a C.ID its chunks do not carry.
    """
    if chunk.type is not _SIGNALING:
        raise SignalingError(f"not a signaling chunk: TYPE={chunk.type.name}")
    if len(chunk.payload) != _SIG.size:
        raise SignalingError(
            f"signaling payload too {'short' if len(chunk.payload) < _SIG.size else 'long'}"
            f" ({len(chunk.payload)} bytes, not {_SIG.size})"
        )
    conn_id, unit_words, tpdu_units, flags, reserved1, reserved2 = _SIG.unpack(chunk.payload)
    if conn_id != chunk.c_id:
        raise SignalingError(
            f"signaling payload C.ID {conn_id} differs from its header's {chunk.c_id}"
        )
    if reserved1 or reserved2:
        raise SignalingError(
            f"nonzero reserved signaling bytes ({reserved1:#04x}, {reserved2:#04x})"
        )
    if flags:
        raise SignalingError(f"nonzero signaling flag bits {flags:#06x}")
    # positionally: the payload's order, and ~0.3 µs less
    return ConnectionConfig(conn_id, unit_words, tpdu_units)
