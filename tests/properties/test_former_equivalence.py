"""Property suite: the run-based former equals the Figure-2 grouping rule.

Section 2 defines a chunk from the bottom up — label every data unit
with its (ID, SN, ST) tuples, then let "a group of data with contiguous
sequence numbers that have identical TYPE and IDs ... share a single
header".  :func:`repro.core.builder.chunks_from_labels` is that rule.
:meth:`ChunkStreamBuilder.add_frame` never forms the per-unit labels:
it steps from cut point to cut point.  This suite keeps the per-unit
labelling (:class:`PerUnitLabeller`, one ``LabeledUnit`` per atomic
unit) as the reference and requires the two to agree chunk for chunk,
and in every piece of state a later frame depends on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder, LabeledUnit, chunks_from_labels
from repro.core.tuples import FramingTuple
from repro.core.types import WORD_BYTES
from tests.conftest import make_payload


@dataclass
class PerUnitLabeller:
    """Reference sender: one full label per atomic unit, no grouping.

    State and update order are those of the specification: the TPDU
    size in force is latched when a TPDU starts, a resize takes effect
    at once only while the TPDU is still empty, and the T.ID counts up
    as soon as a unit closes its TPDU.
    """

    connection_id: int
    tpdu_units: int
    unit_words: int
    c_sn: int
    xpdu_ids: Iterator[int] = field(default_factory=itertools.count)
    t_id: int = 0
    t_sn: int = 0

    def __post_init__(self) -> None:
        self.current_tpdu_units = self.tpdu_units

    def set_tpdu_units(self, units: int) -> None:
        self.tpdu_units = units
        if self.t_sn == 0:
            self.current_tpdu_units = units

    def label_frame(
        self, payload: bytes, frame_id: int | None, end_of_connection: bool
    ) -> list[LabeledUnit]:
        unit_bytes = self.unit_words * WORD_BYTES
        x_id = next(self.xpdu_ids) if frame_id is None else frame_id
        n_units = len(payload) // unit_bytes
        units: list[LabeledUnit] = []
        for i in range(n_units):
            last_of_frame = i == n_units - 1
            last_of_tpdu = self.t_sn == self.current_tpdu_units - 1
            if end_of_connection and last_of_frame:
                last_of_tpdu = True
            units.append(
                LabeledUnit(
                    data=payload[i * unit_bytes : (i + 1) * unit_bytes],
                    c=FramingTuple(
                        self.connection_id, self.c_sn, st=end_of_connection and last_of_frame
                    ),
                    t=FramingTuple(self.t_id, self.t_sn, st=last_of_tpdu),
                    x=FramingTuple(x_id, i, st=last_of_frame),
                    size=self.unit_words,
                )
            )
            self.c_sn += 1
            if last_of_tpdu:
                self.t_id += 1
                self.t_sn = 0
                self.current_tpdu_units = self.tpdu_units
            else:
                self.t_sn += 1
        return units


@st.composite
def scenarios(draw):
    unit_words = draw(st.sampled_from([1, 2, 4]))
    tpdu_units = draw(st.integers(1, 12))
    start_c_sn = draw(st.integers(0, 2**20))
    frames = draw(
        st.lists(
            st.tuples(
                st.integers(1, 30),                      # frame length in units
                st.none() | st.integers(0, 5),           # frame_id (None: allocate)
                st.none() | st.integers(1, 12),          # resize before this frame
            ),
            min_size=1,
            max_size=6,
        )
    )
    return (
        unit_words,
        tpdu_units,
        start_c_sn,
        frames,
        draw(st.booleans()),
    )


@given(scenarios())
def test_add_frame_equals_grouped_per_unit_labels(scenario):
    unit_words, tpdu_units, start_c_sn, frames, close = scenario
    former = ChunkStreamBuilder(
        connection_id=7,
        tpdu_units=tpdu_units,
        unit_words=unit_words,
        start_c_sn=start_c_sn,
    )
    reference = PerUnitLabeller(
        connection_id=7,
        tpdu_units=tpdu_units,
        unit_words=unit_words,
        c_sn=start_c_sn,
    )
    for index, (n_units, frame_id, resize) in enumerate(frames):
        if resize is not None:
            former.set_tpdu_units(resize)
            reference.set_tpdu_units(resize)
        payload = make_payload(n_units, unit_words, seed=index)
        end_of_connection = close and index == len(frames) - 1

        chunks = former.add_frame(
            payload, frame_id=frame_id, end_of_connection=end_of_connection
        )
        labels = reference.label_frame(payload, frame_id, end_of_connection)

        assert chunks == chunks_from_labels(labels)
        assert former.next_c_sn == reference.c_sn
        assert former.current_tpdu_id == reference.t_id
        assert all(type(chunk.payload) is bytes for chunk in chunks)
