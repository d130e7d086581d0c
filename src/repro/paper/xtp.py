"""The XTP alternative: shrink PDUs instead of fragmenting (Section 3.2).

"An alternative to fragmentation is to convert large PDUs into smaller
PDUs, as is done in XTP...  One consequence of this is that all of the
higher-layer protocols in use on the network must be at the point of
fragmentation...  Another disadvantage is that the overhead of all PDUs
must be carried in each packet."

We model the two XTP mechanisms the paper discusses:

- :func:`packetize` — every packet is a complete TPDU with the full
  per-TPDU header (XTP's header is 40 bytes; revision 3.5 [XTP 90]);
  an entity changing packet sizes must understand XTP ("both the syntax
  and semantics") and *re-packetize*, recomputing per-TPDU trailers;
- :class:`SuperPacket` — multiple whole TPDUs combined into one packet
  using a *different* format from the regular packet ("the SUPER packet
  format is not the same as the regular XTP packet format"), in contrast
  with chunks, which keep one format under all combining.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.paper.crc import crc32

__all__ = [
    "XTP_HEADER_BYTES",
    "XTP_TRAILER_BYTES",
    "XtpPdu",
    "packetize",
    "repacketize",
    "SuperPacket",
]

#: XTP revision 3.5 common header.
XTP_HEADER_BYTES = 40

#: Trailer carrying the per-TPDU check function.
XTP_TRAILER_BYTES = 4

_SUPER_MAGIC = 0x5350


@dataclass(frozen=True, slots=True)
class XtpPdu:
    """One XTP TPDU: key (connection), seq (byte sequence), payload."""

    key: int
    seq: int
    payload: bytes
    end_of_message: bool = False

    @property
    def wire_bytes(self) -> int:
        return XTP_HEADER_BYTES + len(self.payload) + XTP_TRAILER_BYTES

    def encode(self) -> bytes:
        header = struct.pack(
            ">HHIQQB15x",
            0x5854,  # "XT"
            1 if self.end_of_message else 0,
            self.key,
            self.seq,
            len(self.payload),
            0,
        )
        assert len(header) == XTP_HEADER_BYTES
        body = header + self.payload
        return body + struct.pack(">I", crc32(body))

    @classmethod
    def decode(cls, data: bytes) -> "XtpPdu":
        if len(data) < XTP_HEADER_BYTES + XTP_TRAILER_BYTES:
            raise ValueError("short XTP packet")
        magic, eom, key, seq, length, _ = struct.unpack(
            ">HHIQQB15x", data[:XTP_HEADER_BYTES]
        )
        if magic != 0x5854:
            raise ValueError("bad XTP magic")
        payload = data[XTP_HEADER_BYTES : XTP_HEADER_BYTES + length]
        (check,) = struct.unpack(">I", data[XTP_HEADER_BYTES + length :][:4])
        if check != crc32(data[: XTP_HEADER_BYTES + length]):
            raise ValueError("XTP check failure")
        return cls(key, seq, payload, bool(eom))


def packetize(key: int, stream: bytes, mtu: int, start_seq: int = 0) -> list[XtpPdu]:
    """Cut *stream* into MTU-sized TPDUs — the XTP no-fragmentation rule.

    Every packet pays the full header+trailer, which is the overhead
    penalty the paper contrasts with chunks (CLAIM-OVERHEAD).
    """
    budget = mtu - XTP_HEADER_BYTES - XTP_TRAILER_BYTES
    if budget < 1:
        raise ValueError(f"MTU {mtu} below XTP header+trailer size")
    pdus = []
    offset = 0
    while offset < len(stream):
        piece = stream[offset : offset + budget]
        pdus.append(
            XtpPdu(
                key,
                start_seq + offset,
                piece,
                end_of_message=offset + len(piece) >= len(stream),
            )
        )
        offset += len(piece)
    return pdus


def repacketize(pdus: list[XtpPdu], mtu: int) -> list[XtpPdu]:
    """Convert TPDUs for a smaller MTU.

    This requires full XTP knowledge: payloads are re-cut and every
    check trailer recomputed — the coupling the paper criticizes
    ("anyone who fragments XTP packets must understand the XTP
    protocol").
    """
    out: list[XtpPdu] = []
    for pdu in pdus:
        if pdu.wire_bytes <= mtu:
            out.append(pdu)
            continue
        pieces = packetize(pdu.key, pdu.payload, mtu, start_seq=pdu.seq)
        if not pdu.end_of_message:
            pieces[-1] = XtpPdu(
                pieces[-1].key, pieces[-1].seq, pieces[-1].payload, False
            )
        out.extend(pieces)
    return out


@dataclass(frozen=True, slots=True)
class SuperPacket:
    """An XTP SUPER packet: whole TPDUs sharing one envelope.

    Uses a distinct wire format (magic + count + length-prefixed TPDUs);
    a receiver must implement *both* formats, unlike chunk packets.
    """

    pdus: tuple[XtpPdu, ...]

    @property
    def wire_bytes(self) -> int:
        return 4 + sum(4 + p.wire_bytes for p in self.pdus)

    def encode(self) -> bytes:
        parts = [struct.pack(">HH", _SUPER_MAGIC, len(self.pdus))]
        for pdu in self.pdus:
            blob = pdu.encode()
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "SuperPacket":
        magic, count = struct.unpack(">HH", data[:4])
        if magic != _SUPER_MAGIC:
            raise ValueError("bad SUPER packet magic")
        offset = 4
        pdus = []
        for _ in range(count):
            (length,) = struct.unpack(">I", data[offset : offset + 4])
            offset += 4
            pdus.append(XtpPdu.decode(data[offset : offset + length]))
            offset += length
        return cls(tuple(pdus))

    @classmethod
    def pack(cls, pdus: list[XtpPdu], mtu: int) -> list["SuperPacket"]:
        """Greedy combining of whole TPDUs into SUPER packets."""
        packets: list[SuperPacket] = []
        current: list[XtpPdu] = []
        used = 4
        for pdu in pdus:
            need = 4 + pdu.wire_bytes
            if current and used + need > mtu:
                packets.append(cls(tuple(current)))
                current, used = [], 4
            current.append(pdu)
            used += need
        if current:
            packets.append(cls(tuple(current)))
        return packets
