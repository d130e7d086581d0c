"""Packet-scope header compression: positional info + Huffman (App. A).

"In general, we can use positional information and Huffman encoding to
reduce the chunk header overhead within a packet."

A :class:`CompressedPacketCodec` encodes one packet's chunks as:

    varint  chunk count
    varint  Huffman bit count
    bytes   Huffman-coded concatenation of the chunks' compact headers
    bytes   the payloads, back to back

Positional information comes from the compact header's intra-packet
prediction: within one packet, chunks are in order (packets are atomic
units), so the second and later chunks of a run need no explicit SNs at
all; Huffman coding then squeezes the residual header bytes using the
static by-specification code.  The transform is exactly invertible and
entirely local to one packet — routers can still refragment, because
they decompress, re-envelope, and recompress.
"""

from __future__ import annotations

from repro.core.chunk import Chunk
from repro.paper.compress import (
    CompressionProfile,
    HeaderCompressor,
    HeaderDecompressor,
    decode_varint,
    encode_varint,
)
from repro.core.errors import CodecError
from repro.core.types import PACKET_HEADER_BYTES
from repro.paper.huffman import DEFAULT_HEADER_CODE, HuffmanCode

__all__ = ["CompressedPacketCodec"]


class CompressedPacketCodec:
    """Encode/decode whole packets with per-packet header compression.

    The *profile* carries the signaled facts (SIZE by type, connection
    id, implicit T.ID); the *code* is the shared static Huffman code.
    A fresh header-prediction context is used per packet, so packets
    stay independently decodable (loss of one never desynchronizes the
    next — unlike stream-scope SN regeneration).
    """

    def __init__(
        self,
        profile: CompressionProfile | None = None,
        code: HuffmanCode = DEFAULT_HEADER_CODE,
    ) -> None:
        self.profile = profile if profile is not None else CompressionProfile()
        # Per-packet contexts need intra-packet prediction enabled.
        self._packet_profile = CompressionProfile(
            size_by_type=self.profile.size_by_type,
            connection_id=self.profile.connection_id,
            implicit_t_id=self.profile.implicit_t_id,
            regenerate_sns=True,
        )
        self.code = code

    # ------------------------------------------------------------------

    def encode(self, chunks: list[Chunk]) -> bytes:
        """One packet's wire bytes."""
        compressor = HeaderCompressor(self._packet_profile)
        headers = b"".join(compressor.encode_header(chunk) for chunk in chunks)
        packed, bit_count = self.code.encode(headers)
        body = (
            encode_varint(len(chunks))
            + encode_varint(bit_count)
            + packed
            + b"".join(chunk.payload for chunk in chunks)
        )
        return body

    def decode(self, data: bytes) -> list[Chunk]:
        """Exact inverse of :meth:`encode`."""
        count, offset = decode_varint(data, 0)
        bit_count, offset = decode_varint(data, offset)
        packed_len = (bit_count + 7) // 8
        if offset + packed_len > len(data):
            raise CodecError("truncated compressed header block")
        try:
            headers = self.code.decode(data[offset : offset + packed_len], bit_count)
        except ValueError as exc:
            raise CodecError(f"bad Huffman header block: {exc}") from None
        offset += packed_len

        decompressor = HeaderDecompressor(self._packet_profile)
        fields_list = []
        header_offset = 0
        for _ in range(count):
            fields, payload_len, header_offset = decompressor.decode_header(
                headers, header_offset
            )
            fields_list.append((fields, payload_len))
        if header_offset != len(headers):
            raise CodecError("trailing bytes in compressed header block")

        chunks: list[Chunk] = []
        for fields, payload_len in fields_list:
            if offset + payload_len > len(data):
                raise CodecError("truncated chunk payload in compressed packet")
            chunks.append(
                decompressor.finish(fields, bytes(data[offset : offset + payload_len]))
            )
            offset += payload_len
        return chunks

    # ------------------------------------------------------------------

    def wire_bytes(self, chunks: list[Chunk]) -> int:
        """Total bytes on the wire including the packet envelope."""
        return PACKET_HEADER_BYTES + len(self.encode(chunks))
