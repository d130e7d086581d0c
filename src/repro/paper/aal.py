"""ATM Adaptation Layer models (Appendix B comparators).

**AAL5** [LYON 91]: "provides a single bit of higher-layer framing
information in the ATM cell header that is equivalent to the T.ST bit in
chunks...  No explicit ID, SN, or TYPE fields are needed because ATM
links do not misorder.  Because no SN is used, an SN of zero cannot be
used to indicate the beginning of a frame.  A cell is considered to
contain the beginning of a frame if the previous cell was the end of a
frame."

**AAL3/4** [DEPR 91]: "uses a C.ID (MID), a 4-bit C.SN, and framing
information denoting the beginning, continuation, or end of message
(BOM, COM, EOM)."

Both are modelled at the level the comparison needs: per-cell framing
bits, segmentation/reassembly, and the failure modes that implicit
framing brings on misordering channels (the Appendix B argument for
chunks' explicit labels).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.paper.crc import crc32

__all__ = [
    "CELL_PAYLOAD",
    "Aal5Cell",
    "aal5_segment",
    "Aal5Reassembler",
    "SegmentType",
    "Aal34Cell",
    "aal34_segment",
    "Aal34Reassembler",
]

#: ATM cell payload size.
CELL_PAYLOAD = 48


# ----------------------------------------------------------------------
# AAL5
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Aal5Cell:
    """One ATM cell under AAL5: payload + the end-of-frame bit."""

    payload: bytes  # exactly 48 bytes
    end_of_frame: bool  # the PTI user-signaling bit (paper: ~ T.ST)


def aal5_segment(frame: bytes) -> list[Aal5Cell]:
    """Segment a CPCS frame into cells with the AAL5 trailer.

    The 8-byte trailer (2 pad-control + 2 length + 4 CRC-32) sits at the
    end of the last cell; the frame is padded so the total is a multiple
    of 48.  Only the final cell has the end bit — framing is one bit.
    """
    trailer_less = len(frame)
    total = trailer_less + 8
    pad = (-total) % CELL_PAYLOAD
    body = frame + b"\x00" * pad
    trailer = struct.pack(">HHI", 0, trailer_less, 0)
    blob = body + trailer
    # CRC over everything with the CRC field zeroed, then patched in.
    crc = crc32(blob)
    blob = body + struct.pack(">HHI", 0, trailer_less, crc)
    cells = []
    for offset in range(0, len(blob), CELL_PAYLOAD):
        cells.append(
            Aal5Cell(
                blob[offset : offset + CELL_PAYLOAD],
                end_of_frame=offset + CELL_PAYLOAD >= len(blob),
            )
        )
    return cells


@dataclass
class Aal5Reassembler:
    """AAL5 reassembly: concatenate cells until the end bit.

    Correct only on in-order, loss-free channels; any misordering or
    loss silently corrupts frames, caught (if at all) by the CRC — the
    behaviour the Appendix B bench demonstrates.
    """

    frames_ok: int = 0
    frames_bad_crc: int = 0
    frames_bad_length: int = 0
    _buffer: bytearray = field(default_factory=bytearray)

    def add_cell(self, cell: Aal5Cell) -> bytes | None:
        """Returns the CPCS payload when a frame completes correctly."""
        self._buffer.extend(cell.payload)
        if not cell.end_of_frame:
            return None
        blob = bytes(self._buffer)
        self._buffer.clear()
        if len(blob) < 8:
            self.frames_bad_length += 1
            return None
        _pad_ctl, length, crc = struct.unpack(">HHI", blob[-8:])
        if crc32(blob[:-4] + b"\x00" * 4) != crc:
            self.frames_bad_crc += 1
            return None
        if length > len(blob) - 8:
            self.frames_bad_length += 1
            return None
        self.frames_ok += 1
        return blob[:length]


# ----------------------------------------------------------------------
# AAL3/4
# ----------------------------------------------------------------------

class SegmentType(enum.IntEnum):
    """AAL3/4 segment type bits."""

    BOM = 0b10  # beginning of message
    COM = 0b00  # continuation
    EOM = 0b01  # end of message
    SSM = 0b11  # single-segment message


@dataclass(frozen=True, slots=True)
class Aal34Cell:
    """One AAL3/4 cell: 2-byte SAR header + 44-byte payload."""

    segment_type: SegmentType
    sn: int  # 4-bit sequence number, mod 16
    mid: int  # 10-bit multiplexing id (the paper's C.ID analogue)
    payload: bytes  # 44 bytes of SAR payload


_AAL34_PAYLOAD = 44


def aal34_segment(mid: int, frame: bytes, start_sn: int = 0) -> list[Aal34Cell]:
    """Segment a frame into BOM/COM/EOM cells with mod-16 SNs."""
    pad = (-len(frame)) % _AAL34_PAYLOAD
    blob = frame + b"\x00" * pad
    count = len(blob) // _AAL34_PAYLOAD
    cells = []
    for index in range(count):
        if count == 1:
            seg_type = SegmentType.SSM
        elif index == 0:
            seg_type = SegmentType.BOM
        elif index == count - 1:
            seg_type = SegmentType.EOM
        else:
            seg_type = SegmentType.COM
        cells.append(
            Aal34Cell(
                seg_type,
                (start_sn + index) % 16,
                mid,
                blob[index * _AAL34_PAYLOAD : (index + 1) * _AAL34_PAYLOAD],
            )
        )
    return cells


@dataclass
class Aal34Reassembler:
    """AAL3/4 reassembly keyed by MID with mod-16 SN continuity check.

    The 4-bit SN detects *some* loss/misorder (anything that slips the
    sequence by other than a multiple of 16) but cannot recover order —
    frames with a detected discontinuity are discarded.
    """

    frames_ok: int = 0
    frames_discarded: int = 0
    _buffers: dict[int, tuple[bytearray, int]] = field(default_factory=dict)

    def add_cell(self, cell: Aal34Cell) -> bytes | None:
        if cell.segment_type is SegmentType.SSM:
            self.frames_ok += 1
            return bytes(cell.payload)
        if cell.segment_type is SegmentType.BOM:
            self._buffers[cell.mid] = (bytearray(cell.payload), cell.sn)
            return None
        state = self._buffers.get(cell.mid)
        if state is None:
            self.frames_discarded += 1
            return None
        buffer, last_sn = state
        if cell.sn != (last_sn + 1) % 16:
            del self._buffers[cell.mid]
            self.frames_discarded += 1
            return None
        buffer.extend(cell.payload)
        if cell.segment_type is SegmentType.EOM:
            del self._buffers[cell.mid]
            self.frames_ok += 1
            return bytes(buffer)
        self._buffers[cell.mid] = (buffer, cell.sn)
        return None
