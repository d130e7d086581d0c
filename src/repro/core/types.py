"""Chunk TYPE registry and wire-format constants.

The paper introduces *explicit data typing within a PDU*: every chunk
carries a TYPE field that says how its payload is processed.  The basic
PDU contains pieces of type ``data`` and one or more ``control`` types.
This module defines the types used throughout the library plus the sizes
of the fixed-field wire encoding described in DESIGN.md section 6.
"""

from __future__ import annotations

import enum
from typing import Final

__all__ = [
    "ChunkType",
    "WORD_BYTES",
    "HEADER_BYTES",
    "PACKET_HEADER_BYTES",
    "SENTINEL_LEN",
    "MAX_TPDU_SYMBOLS",
    "ID_LIMIT",
    "SN_LIMIT",
    "SIZE_LIMIT",
    "LEN_LIMIT",
    "OPEN_END",
    "is_control_type",
]

#: Size in bytes of the 32-bit symbol that all SIZE/LEN accounting uses.
WORD_BYTES: Final[int] = 4

#: Bytes of a fixed-field chunk header on the wire:
#: TYPE(1) + FLAGS(1) + SIZE(2) + LEN(4) + 3 x (ID(4) + SN(8)) = 44.
HEADER_BYTES: Final[int] = 44

#: Bytes of the packet envelope header: MAGIC(2) + FLAGS(1) + reserved(1).
PACKET_HEADER_BYTES: Final[int] = 4

#: A chunk header whose LEN field is zero marks the end of valid chunks
#: within a packet (Section 2: "A chunk with LEN=0 is placed after the
#: last valid chunk in the packet").
SENTINEL_LEN: Final[int] = 0

#: Figure 5 limits TPDU data to 16,384 32-bit symbols.
MAX_TPDU_SYMBOLS: Final[int] = 16_384

#: Exclusive upper bounds of the unsigned header fields (every ID is 4
#: bytes, every SN 8, SIZE 2, LEN 4).  A label made inside them encodes;
#: :mod:`repro.core.wire_table` asserts they are the table's widths.
ID_LIMIT: Final[int] = 1 << 32
SN_LIMIT: Final[int] = 1 << 64
SIZE_LIMIT: Final[int] = 1 << 16
LEN_LIMIT: Final[int] = 1 << 32

#: The end of a gap report's unit range that nothing bounds yet (neither
#: the TPDU's T.ST nor its ED chunk seen): the largest 32-bit word.
OPEN_END: Final[int] = ID_LIMIT - 1


class ChunkType(enum.IntEnum):
    """Explicit chunk types.

    ``DATA`` is PDU payload.  Everything else is control information,
    which the paper treats as indivisible (never fragmented).
    """

    #: PDU payload ("TYPE = D" in Figure 2).
    DATA = 0x01
    #: Transport-layer error detection code ("TYPE = ED" in Figure 3).
    ERROR_DETECTION = 0x02
    #: Connection signaling (establishment / teardown / parameter carry,
    #: Appendix A: SIZE and C.ST may travel by signaling).
    SIGNALING = 0x03
    #: Acknowledgment control information (Appendix A mentions combining
    #: data, signaling and acknowledgments in one packet).
    ACK = 0x04
    #: External-PDU (application/ALF-level) control information.
    EXTERNAL_CONTROL = 0x05

    @property
    def is_control(self) -> bool:
        """True for every type except :attr:`DATA`."""
        return self is not ChunkType.DATA


def is_control_type(chunk_type: ChunkType | int) -> bool:
    """Return True if *chunk_type* denotes control information.

    Accepts a raw integer so codecs can classify before constructing the
    enum (unknown future control types would still be integers).
    """
    return int(chunk_type) != int(ChunkType.DATA)
