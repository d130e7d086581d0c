"""Connection model and signaling.

"The connection ID is intended to refer to a single, unmultiplexed
application-to-application conversation [FELD 90].  ...  The beginning
of a connection is indicated with a special signaling message
(connection establishment) rather than an SN of zero" (Section 2).

Appendix A moves seldom-changing header facts into signaling: "when a
connection is formed, the value of the SIZE field of each chunk TYPE can
be carried in the signaling message", and "the C.ST bit also could be
sent as a signaling message".  :class:`ConnectionConfig` is that
signaled state; it round-trips through a SIGNALING chunk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.chunk import Chunk
from repro.core.compress import CompressionProfile
from repro.core.errors import SignalingError
from repro.core.tuples import FramingTuple
from repro.core.types import WORD_BYTES, ChunkType
from repro.core.wire_table import SIGNALING_PAYLOAD

__all__ = ["ConnectionConfig", "build_signaling_chunk", "parse_signaling_chunk"]

# conn id, unit words, tpdu units, flags, 2 reserved
_SIG = struct.Struct(SIGNALING_PAYLOAD.struct_format)
_SIG_MAGIC_FLAGS_IMPLICIT_TID = 0x0001
_SIG_MAGIC_FLAGS_REGEN_SNS = 0x0002
_SIG_KNOWN_FLAGS = _SIG_MAGIC_FLAGS_IMPLICIT_TID | _SIG_MAGIC_FLAGS_REGEN_SNS


@dataclass(frozen=True)
class ConnectionConfig:
    """Per-connection parameters carried by establishment signaling.

    Attributes:
        connection_id: the C.ID of the (unmultiplexed) conversation.
        unit_words: SIZE for DATA chunks (atomic-unit words) — e.g. 2
            when payloads are 64-bit cipher blocks.
        tpdu_units: TPDU length in atomic units (the error-control
            framing granularity).
        implicit_t_id / regenerate_sns: header-compression options both
            ends agree to (Appendix A).
    """

    connection_id: int
    unit_words: int = 1
    tpdu_units: int = 256
    implicit_t_id: bool = False
    regenerate_sns: bool = False

    def compression_profile(self) -> CompressionProfile:
        """The equivalent Appendix A compression profile."""
        return CompressionProfile(
            size_by_type={
                ChunkType.DATA: self.unit_words,
                ChunkType.ERROR_DETECTION: 1,
                ChunkType.SIGNALING: 1,
            },
            connection_id=self.connection_id,
            implicit_t_id=self.implicit_t_id,
            regenerate_sns=self.regenerate_sns,
        )

    @property
    def unit_bytes(self) -> int:
        return self.unit_words * WORD_BYTES

    @property
    def tpdu_bytes(self) -> int:
        return self.tpdu_units * self.unit_bytes


def build_signaling_chunk(config: ConnectionConfig) -> Chunk:
    """Connection-establishment chunk carrying the signaled parameters."""
    flags = 0
    if config.implicit_t_id:
        flags |= _SIG_MAGIC_FLAGS_IMPLICIT_TID
    if config.regenerate_sns:
        flags |= _SIG_MAGIC_FLAGS_REGEN_SNS
    payload = _SIG.pack(
        config.connection_id,
        config.unit_words,
        min(config.tpdu_units, 0xFFFF),
        flags,
        0,
        0,
    )
    # Pad to a whole number of words (control LEN counts words).
    pad = (-len(payload)) % WORD_BYTES
    payload += b"\x00" * pad
    return Chunk(
        type=ChunkType.SIGNALING,
        size=1,
        length=len(payload) // WORD_BYTES,
        c=FramingTuple(config.connection_id, 0, False),
        t=FramingTuple(0, 0, False),
        x=FramingTuple(0, 0, False),
        payload=payload,
    )


def parse_signaling_chunk(chunk: Chunk) -> ConnectionConfig:
    """Recover the signaled parameters from an establishment chunk.

    Strict by design: reserved bytes must be zero and no unknown flag
    bits may be set.  A corrupted establishment must fail loudly here —
    silently accepting it would install wrong per-connection SIZE/TPDU
    parameters and mis-place every subsequent chunk of the conversation.
    """
    if chunk.type is not ChunkType.SIGNALING:
        raise SignalingError(f"not a signaling chunk: TYPE={chunk.type.name}")
    if len(chunk.payload) < _SIG.size:
        raise SignalingError("signaling payload too short")
    conn_id, unit_words, tpdu_units, flags, reserved1, reserved2 = _SIG.unpack_from(
        chunk.payload, 0
    )
    if reserved1 or reserved2:
        raise SignalingError(
            f"nonzero reserved signaling bytes ({reserved1:#04x}, {reserved2:#04x})"
        )
    if flags & ~_SIG_KNOWN_FLAGS:
        raise SignalingError(
            f"unknown signaling flag bits {flags & ~_SIG_KNOWN_FLAGS:#06x}"
        )
    return ConnectionConfig(
        connection_id=conn_id,
        unit_words=unit_words,
        tpdu_units=tpdu_units,
        implicit_t_id=bool(flags & _SIG_MAGIC_FLAGS_IMPLICIT_TID),
        regenerate_sns=bool(flags & _SIG_MAGIC_FLAGS_REGEN_SNS),
    )
