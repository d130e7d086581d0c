"""Building chunks from labelled data streams (Figures 1 and 2).

Conceptually "each piece of data is labelled with a TYPE field and
multiple (ID, SN, ST) tuples", and "a group of data with contiguous
sequence numbers that have identical TYPE and IDs can share a single
header.  Thus, a chunk is a group of data, along with a single header to
label the data" (Section 2).

Two layers, the first the specification of the second:

- :func:`chunks_from_labels` — the grouping rule itself: per-unit labels
  in, maximally shared chunk headers out (this regenerates the worked
  example of Figure 2 exactly).  O(words), and on no send path;
- :class:`ChunkStreamBuilder` — the sender-side framer.  A sender's
  labels change only where a TPDU or the frame ends, so it never
  materialises them: it forms one chunk per run between those cut
  points, O(chunks) per frame.

The framer is right only if it emits what the rule would make of the
labels it skipped.  ``tests/properties/test_former_equivalence.py``
keeps that per-unit labelling as the reference and checks them equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.chunk import Chunk
from repro.core.errors import ChunkError
from repro.core.tuples import FramingTuple
from repro.core.types import ID_LIMIT, MAX_TPDU_SYMBOLS, SN_LIMIT, WORD_BYTES, ChunkType

__all__ = ["LabeledUnit", "chunks_from_labels", "ChunkStreamBuilder"]


@dataclass(frozen=True, slots=True)
class LabeledUnit:
    """One atomic data unit with its full set of framing labels."""

    data: bytes
    c: FramingTuple
    t: FramingTuple
    x: FramingTuple
    size: int = 1

    def __post_init__(self) -> None:
        if len(self.data) != self.size * WORD_BYTES:
            raise ChunkError(
                f"unit data is {len(self.data)} bytes; SIZE={self.size} "
                f"requires {self.size * WORD_BYTES}"
            )


def _extends(run_last: LabeledUnit, unit: LabeledUnit) -> bool:
    """May *unit* join a run whose last element is *run_last*?

    Requires identical SIZE and IDs, SNs contiguous at every level, and
    that the run's current last unit carries no ST bit (an ST bit can
    only sit on the final unit of a chunk).
    """
    if unit.size != run_last.size:
        return False
    if run_last.c.st or run_last.t.st or run_last.x.st:
        return False
    return (
        unit.c.follows(run_last.c, 1)
        and unit.t.follows(run_last.t, 1)
        and unit.x.follows(run_last.x, 1)
    )


def chunks_from_labels(units: Iterable[LabeledUnit]) -> list[Chunk]:
    """Group per-unit labels into maximally shared chunk headers."""
    chunks: list[Chunk] = []
    run: list[LabeledUnit] = []

    def flush() -> None:
        if not run:
            return
        first, last = run[0], run[-1]
        chunks.append(
            Chunk(
                type=ChunkType.DATA,
                size=first.size,
                length=len(run),
                c=FramingTuple(first.c.ident, first.c.sn, last.c.st),
                t=FramingTuple(first.t.ident, first.t.sn, last.t.st),
                x=FramingTuple(first.x.ident, first.x.sn, last.x.st),
                payload=b"".join(u.data for u in run),
            )
        )
        run.clear()

    for unit in units:
        if run and not _extends(run[-1], unit):
            flush()
        run.append(unit)
    flush()
    return chunks


def _in_field(name: str, value: int, limit: int) -> int:
    if not 0 <= value < limit:
        raise ChunkError(f"{name} must be in 0..{limit - 1}, got {value}")
    return value


@dataclass
class ChunkStreamBuilder:
    """Sender-side framer: external PDUs in, chunks out.

    The builder maintains three independent framings over one
    uni-directional data stream (Section 2 treats the whole connection
    as one large PDU; as in Figure 1, one external PDU may span several
    TPDUs and vice versa):

    - connection: ``C.ID`` fixed, ``C.SN`` monotonically increasing;
    - TPDU: a new ``T.ID`` every ``tpdu_units`` data units (at most
      ``MAX_TPDU_SYMBOLS`` words), ``T.SN`` restarting at zero.  Changing
      ``tpdu_units`` takes effect at the next TPDU boundary, which is
      what lets a transport "reduce its TPDU size to match the observed
      network error rate" (Section 3);
    - external PDU: one ``X.ID`` per frame handed to :meth:`add_frame`,
      ``X.SN`` restarting at zero.

    :meth:`add_frame` walks a frame in runs of ``min(units left in the
    TPDU, units left in the frame)`` and advances all three framings
    once per run — the chunks :func:`chunks_from_labels` would group
    from per-unit labels, without forming the labels.

    Frame payloads must be a whole number of atomic units
    (``unit_words * 4`` bytes each); ciphertext callers pad upstream.
    """

    connection_id: int
    tpdu_units: int
    unit_words: int = 1
    start_c_sn: int = 0
    tpdu_ids: Iterator[int] = None  # type: ignore[assignment]
    xpdu_ids: Iterator[int] = None  # type: ignore[assignment]

    _c_sn: int = field(init=False)
    _t_id: int = field(init=False)
    _t_sn: int = field(init=False, default=0)
    _current_tpdu_units: int = field(init=False)
    _closed: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.unit_words < 1:
            raise ChunkError(f"unit_words must be >= 1, got {self.unit_words}")
        self.set_tpdu_units(self.tpdu_units)  # validates; T.SN is 0, so it is in force at once
        if self.tpdu_ids is None:
            self.tpdu_ids = itertools.count()
        if self.xpdu_ids is None:
            self.xpdu_ids = itertools.count()
        # Labels are made by `Chunk._make` below, so what the validating
        # constructor would check per chunk is checked here where each value
        # is chosen: C.ID once, every T.ID / X.ID as drawn, C.SN per frame.
        _in_field("C.ID", self.connection_id, ID_LIMIT)
        self._c_sn = _in_field("C.SN", self.start_c_sn, SN_LIMIT)
        self._t_id = _in_field("T.ID", next(self.tpdu_ids), ID_LIMIT)

    def set_tpdu_units(self, units: int) -> None:
        """Change the TPDU size from the *next* TPDU onward (Section 3)."""
        limit = MAX_TPDU_SYMBOLS // self.unit_words
        if not 1 <= units <= limit:
            raise ChunkError(f"tpdu_units must be in 1..{limit}, got {units}")
        self.tpdu_units = units
        if self._t_sn == 0:
            # No data in the current TPDU yet: apply immediately.
            self._current_tpdu_units = units

    @property
    def unit_bytes(self) -> int:
        return self.unit_words * WORD_BYTES

    def add_frame(
        self,
        payload: bytes,
        frame_id: int | None = None,
        end_of_connection: bool = False,
    ) -> list[Chunk]:
        """Frame one external PDU and return its chunks.

        *end_of_connection* sets the C.ST bit on the final data unit
        (Section 2: the last piece of data of a PDU — here the
        connection — is indicated by a set ST bit) and also closes any
        partially filled TPDU by setting its T.ST bit.
        """
        if self._closed:
            raise ChunkError("builder is closed (end_of_connection already sent)")
        if not payload:
            raise ChunkError("external PDU payload must be non-empty")
        unit_bytes = self.unit_bytes
        if len(payload) % unit_bytes:
            raise ChunkError(
                f"frame of {len(payload)} bytes is not a whole number of "
                f"{unit_bytes}-byte atomic units"
            )
        x_id = _in_field("X.ID", next(self.xpdu_ids) if frame_id is None else frame_id, ID_LIMIT)
        n_units = len(payload) // unit_bytes
        _in_field("C.SN", self._c_sn + n_units - 1, SN_LIMIT)
        data = memoryview(payload)
        chunks: list[Chunk] = []
        x_sn = 0
        while x_sn < n_units:
            run = min(self._current_tpdu_units - self._t_sn, n_units - x_sn)
            last_of_frame = x_sn + run == n_units
            last_of_connection = end_of_connection and last_of_frame
            last_of_tpdu = last_of_connection or self._t_sn + run == self._current_tpdu_units
            chunks.append(
                Chunk._make(
                    ChunkType.DATA, self.unit_words, run,
                    self.connection_id, self._c_sn, last_of_connection,
                    self._t_id, self._t_sn, last_of_tpdu,
                    x_id, x_sn, last_of_frame,
                    bytes(data[x_sn * unit_bytes : (x_sn + run) * unit_bytes]),
                )
            )
            x_sn += run
            self._c_sn += run
            if last_of_tpdu:
                self._t_id = _in_field("T.ID", next(self.tpdu_ids), ID_LIMIT)
                self._t_sn = 0
                self._current_tpdu_units = self.tpdu_units
            else:
                self._t_sn += run
        if end_of_connection:
            self._closed = True
        return chunks

    @property
    def current_tpdu_id(self) -> int:
        """T.ID that the next data unit will carry."""
        return self._t_id

    @property
    def next_c_sn(self) -> int:
        """C.SN that the next data unit will carry."""
        return self._c_sn
