"""Packets as envelopes for chunks.

"Packets can be considered envelopes that carry integral numbers of
chunks" (Section 2).  This module provides the :class:`Packet` envelope
and the packing policies of Figure 3 / Figure 4:

- :func:`pack_chunks` — greedy first-fit packing of a chunk sequence into
  packets of a given MTU, fragmenting chunks that do not fit (method used
  when entering a small-MTU network);
- :func:`repack` — move chunks between packet sizes without reassembly
  (Figure 4 "Repacked (Method 2)");
- :func:`repack_one_per_packet` — one chunk per large packet (Figure 4
  method 1);
- :func:`repack_with_reassembly` — chunk reassembly before repacking
  (Figure 4 "Reassembled (Method 3)").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core import codec
from repro.core.codec import ED_CONVENTION, ed_fields
from repro.core.chunk import Chunk
from repro.core.errors import PacketError
from repro.core.fragment import fragment_for_mtu, split
from repro.core.reassemble import can_merge, merge
from repro.core.types import HEADER_BYTES, PACKET_HEADER_BYTES, ChunkType

__all__ = [
    "Packet",
    "pack_chunks",
    "unpack_all",
    "repack",
    "repack_one_per_packet",
    "repack_with_reassembly",
]

_ENVELOPE = codec.encode_packet_header()  # flags 0: every packet this library sends
_DATA = ChunkType.DATA


@dataclass(slots=True)
class Packet:
    """A network packet: envelope header plus an integral number of chunks.

    Attributes:
        chunks: the chunks carried, in envelope order (the order is
            irrelevant to the receiver — Section 2: "Because chunks allow
            disordering, how the chunks are placed in a packet is
            irrelevant").
        fixed_size: when set, the packet is padded to exactly this many
            bytes on the wire (cell-like links); otherwise it is exactly
            as large as its contents.
    """

    chunks: list[Chunk] = field(default_factory=list)
    fixed_size: int | None = None

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire, including envelope and padding: what
        :meth:`encode` writes, elided ED chunk headers left out."""
        if self.fixed_size is not None:
            return self.fixed_size
        return len(self.encode())

    @property
    def payload_bytes(self) -> int:
        """Application payload bytes carried (chunk payloads only)."""
        return sum(ch.payload_bytes for ch in self.chunks)

    @property
    def header_overhead(self) -> int:
        """Envelope + chunk-header + padding bytes (non-payload bytes)."""
        return self.wire_bytes - self.payload_bytes

    def encode(self) -> bytes:
        """Serialize to bytes."""
        body_budget = None
        if self.fixed_size is not None:
            body_budget = self.fixed_size - PACKET_HEADER_BYTES
        return _ENVELOPE + codec.encode_chunks(self.chunks, pad_to=body_budget)

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse bytes into a packet (raises CodecError on garbage)."""
        codec.decode_packet_header(data)
        return cls(chunks=codec.decode_chunks(data, PACKET_HEADER_BYTES))


def _chunk_budget(mtu: int) -> int:
    budget = mtu - PACKET_HEADER_BYTES
    if budget <= HEADER_BYTES:
        raise PacketError(
            f"MTU {mtu} cannot hold a packet envelope plus one chunk header"
        )
    return budget


def _first_fit(fill: bool) -> Callable[..., list[Packet]]:
    # The one packer, made twice (a closure, not a call per packing):
    # method 2's, and with *fill* method 3's, which splits a chunk that
    # does not fit the room left at a unit boundary to fill it first.
    def pack_chunks(chunks: Iterable[Chunk], mtu: int, fixed_size: bool = False) -> list[Packet]:
        """Pack *chunks* into packets of at most *mtu* bytes.

        Chunks larger than the MTU are fragmented first (Appendix C); then
        as many chunks as fit are placed per packet (Section 2: "If chunks
        are smaller than a packet, then as many chunks as fit can be placed
        in a single packet").  Chunk order is preserved but is semantically
        irrelevant to receivers.  Each chunk is charged what
        :meth:`Packet.encode` writes for it: an ED chunk right behind its
        TPDU's final DATA chunk rides header-less (``codec.ED_CONVENTION``),
        so such a pair that fits is never split at a packet boundary.
        """
        size = mtu if fixed_size else None
        budget = _chunk_budget(mtu)
        packets: list[Packet] = []
        current: list[Chunk] = []
        used = 0
        final: Chunk | bool = False  # the last piece, if a DATA chunk with T.ST
        for chunk in chunks:
            # A chunk that fits is its own only piece: only one that does not is cut.
            fits = fill or HEADER_BYTES + len(chunk[12]) <= budget
            for piece in (chunk,) if fits else fragment_for_mtu(chunk, mtu, PACKET_HEADER_BYTES):
                need = HEADER_BYTES + len(piece[12])
                if final and ed_fields(piece) == ED_CONVENTION + (final[3], final[6]) and (
                    used + need - HEADER_BYTES <= budget
                ):
                    need -= HEADER_BYTES  # the codec's rule, inline: no call per chunk
                else:
                    while used + need > budget:
                        units = (budget - used - HEADER_BYTES) // piece.unit_bytes if fill else 0
                        if 0 < units < piece.length and not piece.is_control:
                            head, piece = split(piece, units)
                            current.append(head)
                            need = HEADER_BYTES + len(piece.payload)
                        elif not current:
                            raise PacketError(f"MTU {mtu} cannot hold {piece.describe()}")
                        packets.append(Packet(current, size))
                        current, used = [], 0
                current.append(piece)
                used += need
                final = piece[8] and piece[0] is _DATA and piece
        if current:
            packets.append(Packet(current, size))
        return packets
    return pack_chunks


pack_chunks = _first_fit(False)
_pack_filling = _first_fit(True)


def unpack_all(packets: Sequence[Packet]) -> list[Chunk]:
    """All chunks from a packet sequence, in arrival order."""
    out: list[Chunk] = []
    for packet in packets:
        out.extend(packet.chunks)
    return out


def repack_one_per_packet(packets: Sequence[Packet], mtu: int) -> list[Packet]:
    """Figure 4 method 1: put one small chunk in each large packet."""
    budget = _chunk_budget(mtu)
    out = []
    for chunk in unpack_all(packets):
        if chunk.wire_bytes > budget:
            raise PacketError(f"chunk of {chunk.wire_bytes} bytes exceeds MTU {mtu}")
        out.append(Packet(chunks=[chunk]))
    return out


def repack(packets: Sequence[Packet], mtu: int) -> list[Packet]:
    """Figure 4 method 2: combine multiple small chunks into large packets.

    No chunk headers are touched; chunks are simply re-enveloped.  Works
    in either direction (large→small fragments as needed).
    """
    return pack_chunks(unpack_all(packets), mtu)


def repack_with_reassembly(packets: Sequence[Packet], mtu: int) -> list[Packet]:
    """Figure 4 method 3: perform chunk reassembly, then repack.

    Each chunk merges into the one before it where Appendix D allows,
    minimizing chunk-header overhead at the cost of the reassembly
    computation; the order stays method 2's, so an ED chunk still
    follows its TPDU's final DATA chunk.  Because a merged chunk
    re-fragments losslessly at any unit boundary (Appendix C), packing
    fills each packet's residual space by splitting rather than
    starting a fresh packet.  So method 3 never needs more packets than
    method 2's header-preserving repack, by construction: with every
    chunk charged the same way, each of its packets ends at least as
    far along the same stream as method 2's, since merging only drops
    headers.
    """
    merged: list[Chunk] = []
    for chunk in unpack_all(packets):
        if merged and can_merge(merged[-1], chunk):
            merged[-1] = merge(merged[-1], chunk)
        else:
            merged.append(chunk)
    return _pack_filling(merged, mtu)
