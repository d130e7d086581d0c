"""Framing tuples: the (ID, SN, ST) triple that labels each framing level.

Section 2 of the paper: "For PDU data, a (ID, SN, ST) tuple provides
complete identification.  The ID identifies the specific PDU to which the
data belong, and the SN is the data's sequence number within the PDU
payload.  The first piece of data of the PDU has a SN of zero, and the
last piece of data of a PDU is indicated by an ST bit."

A chunk carries one tuple per framing level.  This library uses the three
levels of the paper's worked example: the connection (``C``), the
transport PDU (``T``) and the external/application PDU (``X``), but the
:class:`FramingTuple` itself is level-agnostic.  A :class:`~repro.core.
chunk.Chunk` stores its labels flat; a :class:`FramingTuple` is what its
validating constructor takes and what ``chunk.c`` / ``.t`` / ``.x`` hand
back, held to the ID and SN field widths so that whatever it labels encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, TypeAlias

from repro.core.types import ID_LIMIT, SN_LIMIT

__all__ = ["FramingTuple", "Level", "LEVELS"]

#: Type alias for a framing level name (``"c"``, ``"t"`` or ``"x"``).
Level: TypeAlias = str

#: The three framing levels of the paper's TPDU example, in header order.
LEVELS: Final[tuple[Level, Level, Level]] = ("c", "t", "x")


@dataclass(frozen=True, slots=True)
class FramingTuple:
    """One (ID, SN, ST) framing label.

    Attributes:
        ident: PDU identifier.  Constant across all chunks of one PDU.
        sn: sequence number of the chunk's *first* data unit within the
            PDU payload (data units, not bytes — the unit size is the
            chunk's SIZE field).
        st: STop bit — True only on the chunk carrying the *last* data
            unit of the PDU.
    """

    ident: int
    sn: int
    st: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.ident < ID_LIMIT:
            raise ValueError(f"ID must be in 0..2^32-1, got {self.ident}")
        if not 0 <= self.sn < SN_LIMIT:
            raise ValueError(f"SN must be in 0..2^64-1, got {self.sn}")

    def advanced(self, units: int) -> "FramingTuple":
        """Tuple for a fragment starting *units* data units later.

        Per Appendix C, a non-final fragment keeps ID, advances SN, and
        clears ST (only the fragment carrying the original last unit
        keeps the ST bit).
        """
        return FramingTuple(self.ident, self.sn + units, st=False)

    def tail(self, units: int) -> "FramingTuple":
        """Tuple for the *final* fragment starting *units* units later.

        Keeps the original ST bit (Appendix C: "Only the chunk that
        contains the last data of the original chunk has its ST bits set
        to the values of the ST bits in the original chunk").
        """
        return FramingTuple(self.ident, self.sn + units, st=self.st)

    def head(self) -> "FramingTuple":
        """Tuple for a non-final leading fragment: same ID/SN, ST cleared."""
        return FramingTuple(self.ident, self.sn, st=False)

    def follows(self, other: "FramingTuple", units: int) -> bool:
        """True if *self* is the tuple immediately after *other* spanning
        *units* data units — the Appendix D adjacency test for one level.
        """
        return self.ident == other.ident and self.sn == other.sn + units

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        mark = "*" if self.st else ""
        return f"(id={self.ident}, sn={self.sn}{mark})"
