"""Core chunk protocol: the paper's primary contribution.

Self-describing chunks (Section 2), fragmentation (Appendix C),
reassembly (Appendix D), packet envelopes, the binary wire format,
stream framing (Figures 1-2) and virtual reassembly (Section 3.3).
Appendix A's header compression is a figure model in
:mod:`repro.paper.compress`: no transfer runs it.
"""

from repro.core.builder import ChunkStreamBuilder, LabeledUnit, chunks_from_labels
from repro.core.chunk import Chunk
from repro.core.codec import decode_chunk, decode_chunks, encode_chunk, encode_chunks
from repro.core.errors import (
    ChunkError,
    CodecError,
    ErrorDetectionMismatch,
    FragmentationError,
    PacketError,
    ReassemblyError,
    ReproError,
    SignalingError,
    VirtualReassemblyError,
)
from repro.core.fragment import fragment_for_mtu, split, split_to_unit_limit
from repro.core.intervals import IntervalSet
from repro.core.packet import (
    Packet,
    pack_chunks,
    repack,
    repack_one_per_packet,
    repack_with_reassembly,
    unpack_all,
)
from repro.core.reassemble import can_merge, coalesce, merge
from repro.core.tuples import FramingTuple
from repro.core.types import (
    HEADER_BYTES,
    MAX_TPDU_SYMBOLS,
    PACKET_HEADER_BYTES,
    WORD_BYTES,
    ChunkType,
)
from repro.core.virtual import Arrival, PduState, VirtualReassembler

__all__ = [
    "Chunk",
    "ChunkType",
    "FramingTuple",
    "ChunkStreamBuilder",
    "LabeledUnit",
    "chunks_from_labels",
    "split",
    "split_to_unit_limit",
    "fragment_for_mtu",
    "can_merge",
    "merge",
    "coalesce",
    "Packet",
    "pack_chunks",
    "unpack_all",
    "repack",
    "repack_one_per_packet",
    "repack_with_reassembly",
    "encode_chunk",
    "decode_chunk",
    "encode_chunks",
    "decode_chunks",
    "IntervalSet",
    "VirtualReassembler",
    "PduState",
    "Arrival",
    "WORD_BYTES",
    "HEADER_BYTES",
    "PACKET_HEADER_BYTES",
    "MAX_TPDU_SYMBOLS",
    "ReproError",
    "ChunkError",
    "FragmentationError",
    "ReassemblyError",
    "CodecError",
    "PacketError",
    "VirtualReassemblyError",
    "ErrorDetectionMismatch",
    "SignalingError",
]
