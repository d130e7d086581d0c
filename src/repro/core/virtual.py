"""Virtual reassembly (Section 3.3).

"Regardless of whether we perform physical PDU reassembly, packet
reordering, or immediate packet processing, we must perform virtual
reassembly...  keeping track of the received fragments to determine when
all of the fragments of a PDU have been received."

:class:`VirtualReassembler` tracks, per PDU at one framing level, which
data units have arrived.  It reports:

- *completion* — all units ``[0, n)`` present and the ST-carrying unit
  seen, so an incrementally computed checksum is ready to compare
  (Section 4's trigger for error detection);
- *duplicates* — already-seen units are reported so the caller can skip
  reprocessing them ("we want to avoid processing the same TPDU piece
  twice, as this may cause the checksum to be incorrect", Section 3.3);
- *failures* — a unit beyond a previously-seen ST, or two STs at
  different positions, mean a header was corrupted in a way that virtual
  reassembly itself detects (the "Reassembly Error" rows of Table 1).

There is no payload buffering here: this is bookkeeping only, which is
what lets chunk receivers process data immediately on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.chunk import Chunk
from repro.core.errors import VirtualReassemblyError
from repro.core.intervals import IntervalSet

__all__ = ["Arrival", "PduState", "VirtualReassembler"]

_new = tuple.__new__


class Arrival(NamedTuple):
    """Outcome of recording one chunk against one PDU.

    Attributes:
        new_units: units not seen before (process these).
        duplicate_units: units already recorded (skip these).
        fresh_ranges: the ``[start, end)`` unit ranges that are new.
        completed: True exactly when this arrival completed the PDU.
    """

    new_units: int
    duplicate_units: int
    fresh_ranges: tuple[tuple[int, int], ...]
    completed: bool


@dataclass(slots=True)
class PduState:
    """Reassembly bookkeeping for one PDU: one walk of its set per record."""

    received: IntervalSet = field(default_factory=IntervalSet)
    #: total unit count, known once the ST-carrying chunk arrives.
    total_units: int | None = None
    complete: bool = False

    def record(self, start: int, length: int, st: bool) -> Arrival:
        end = start + length
        received, total = self.received, self.total_units
        if st:
            if total is not None and total != end:
                raise VirtualReassemblyError(
                    f"conflicting ST positions: PDU ends at {total} "
                    f"units but a new ST claims {end}"
                )
            if end < received.span_end:
                # The same verdict the ST-first arrival order reaches.
                raise VirtualReassemblyError(
                    f"data units up to {received.span_end} lie beyond "
                    f"PDU end {end}"
                )
            self.total_units = total = end
        if total is not None and end > total:
            raise VirtualReassemblyError(
                f"data unit range [{start}, {end}) lies beyond PDU end {total}"
            )
        fresh = received.insert(start, end)
        new = 0
        for lo, hi in fresh:
            new += hi - lo
        completed = not self.complete and total is not None and received.is_complete(total)
        self.complete |= completed
        return _new(Arrival, (new, length - new, tuple(fresh), completed))

    def missing(self) -> list[tuple[int, int]]:
        """Unit ranges still outstanding (needs ST to bound the tail)."""
        horizon = self.total_units if self.total_units is not None else self.received.span_end
        return self.received.missing(horizon)


@dataclass
class VirtualReassembler:
    """Tracks every in-flight PDU at one framing level (``"t"`` or ``"x"``).

    The *level* selects which framing tuple of each chunk keys the
    bookkeeping.  A transport receiver runs one instance at the T level
    (TPDU completion drives error-detection checks) and may run another
    at the X level (application-frame completion drives delivery
    notifications, e.g. "video frame ready").
    """

    level: str = "t"
    _pdus: dict[int, PduState] = field(default_factory=dict)
    _completed: set[int] = field(default_factory=set)

    def record(self, chunk: Chunk) -> Arrival:
        """Record a DATA chunk; control chunks are not framed data."""
        if chunk.is_control:
            raise VirtualReassemblyError("control chunks carry no framed data")
        label = chunk.tuple_for(self.level)
        state = self._pdus.setdefault(label.ident, PduState())
        arrival = state.record(label.sn, chunk.length, label.st)
        if arrival.completed:
            self._completed.add(label.ident)
        return arrival

    def state(self, ident: int) -> PduState | None:
        return self._pdus.get(ident)

    def is_complete(self, ident: int) -> bool:
        return ident in self._completed

    def completed_pdus(self) -> set[int]:
        return set(self._completed)

    def in_flight(self) -> list[int]:
        """IDs of PDUs started but not yet complete."""
        return [ident for ident, st in self._pdus.items() if not st.complete]

    def evict(self, ident: int) -> None:
        """Drop bookkeeping for a finished (delivered) PDU."""
        self._pdus.pop(ident, None)
        self._completed.discard(ident)
