"""Unit tests for the three Section 3.3 receiver architectures."""

import random

import pytest

from repro.core.builder import ChunkStreamBuilder
from repro.core.fragment import split_to_unit_limit
from repro.paper.receiver import (
    ImmediateReceiver,
    ReassembleReceiver,
    ReorderReceiver,
)

from tests.helpers import make_payload


def _timed_chunks(tpdu_units=8, frames=4, shuffle_seed=None, dt=0.01):
    """(time, chunk) arrivals for a multi-TPDU stream, single units."""
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=tpdu_units)
    chunks = []
    payload = b""
    for i in range(frames):
        data = make_payload(tpdu_units, seed=i)
        payload += data
        chunks += builder.add_frame(data, frame_id=i)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, 2)]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(pieces)
    return [(i * dt, p) for i, p in enumerate(pieces)], payload


def _run(receiver, arrivals):
    last = 0.0
    for time, chunk in arrivals:
        receiver.on_chunk(time, chunk)
        last = time
    receiver.finish(last)
    return receiver


class TestImmediate:
    def test_one_touch_per_byte(self):
        arrivals, payload = _timed_chunks(shuffle_seed=3)
        receiver = _run(ImmediateReceiver(), arrivals)
        assert receiver.touches_per_byte() == pytest.approx(1.0)

    def test_zero_added_latency(self):
        arrivals, _ = _timed_chunks(shuffle_seed=3)
        receiver = _run(ImmediateReceiver(), arrivals)
        assert receiver.mean_added_latency() == 0.0
        assert receiver.max_added_latency() == 0.0

    def test_stream_correct_under_disorder(self):
        arrivals, payload = _timed_chunks(shuffle_seed=5)
        receiver = _run(ImmediateReceiver(), arrivals)
        assert receiver.app.contents() == payload

    def test_duplicates_not_retouched(self):
        arrivals, payload = _timed_chunks()
        arrivals = arrivals + arrivals[:4]
        receiver = _run(ImmediateReceiver(), arrivals)
        assert receiver.ledger.total_bytes_moved == len(payload)


class TestReorder:
    def test_in_order_stream_single_touch(self):
        arrivals, payload = _timed_chunks(shuffle_seed=None)
        receiver = _run(ReorderReceiver(), arrivals)
        assert receiver.touches_per_byte() == pytest.approx(1.0)
        assert receiver.app.contents() == payload

    def test_disordered_stream_extra_touches(self):
        arrivals, payload = _timed_chunks(shuffle_seed=5)
        receiver = _run(ReorderReceiver(), arrivals)
        assert receiver.touches_per_byte() > 1.0
        assert receiver.app.contents() == payload

    def test_added_latency_positive_under_disorder(self):
        arrivals, _ = _timed_chunks(shuffle_seed=5)
        receiver = _run(ReorderReceiver(), arrivals)
        assert receiver.mean_added_latency() > 0.0

    def test_delivery_is_in_order(self):
        arrivals, _ = _timed_chunks(shuffle_seed=5)
        receiver = _run(ReorderReceiver(), arrivals)
        offsets = [e.offset for e in receiver.events]
        assert offsets == sorted(offsets)

    def test_peak_buffer_under_disorder(self):
        arrivals, _ = _timed_chunks(shuffle_seed=5)
        receiver = _run(ReorderReceiver(), arrivals)
        assert receiver.peak_buffer_bytes > 0


class TestReassemble:
    def test_two_touches_per_byte(self):
        arrivals, _ = _timed_chunks(shuffle_seed=3)
        receiver = _run(ReassembleReceiver(), arrivals)
        assert receiver.touches_per_byte() == pytest.approx(2.0)

    def test_stream_correct(self):
        arrivals, payload = _timed_chunks(shuffle_seed=3)
        receiver = _run(ReassembleReceiver(), arrivals)
        assert receiver.app.contents() == payload

    def test_delivery_waits_for_tpdu_completion(self):
        arrivals, _ = _timed_chunks(shuffle_seed=None)
        receiver = _run(ReassembleReceiver(), arrivals)
        # Even in order, bytes early in a TPDU wait for the TPDU's end.
        assert receiver.mean_added_latency() > 0.0

    def test_delivery_granularity_is_tpdu(self):
        arrivals, _ = _timed_chunks(tpdu_units=8, shuffle_seed=None)
        receiver = _run(ReassembleReceiver(), arrivals)
        sizes = {e.nbytes for e in receiver.events}
        assert sizes == {8 * 4}


class TestComparative:
    """The Section 3.3 ordering: immediate <= reorder <= reassemble."""

    def test_touch_ordering_under_disorder(self):
        results = {}
        for name, cls in (
            ("immediate", ImmediateReceiver),
            ("reorder", ReorderReceiver),
            ("reassemble", ReassembleReceiver),
        ):
            arrivals, _ = _timed_chunks(frames=8, shuffle_seed=7)
            results[name] = _run(cls(), arrivals).touches_per_byte()
        assert results["immediate"] <= results["reorder"] <= results["reassemble"]
        assert results["immediate"] == pytest.approx(1.0)
        assert results["reassemble"] == pytest.approx(2.0)

    def test_latency_ordering_under_disorder(self):
        results = {}
        for name, cls in (
            ("immediate", ImmediateReceiver),
            ("reorder", ReorderReceiver),
            ("reassemble", ReassembleReceiver),
        ):
            arrivals, _ = _timed_chunks(frames=8, shuffle_seed=7)
            results[name] = _run(cls(), arrivals).mean_added_latency()
        assert results["immediate"] == 0.0
        assert results["reorder"] > 0.0
        assert results["reassemble"] > 0.0

    def test_all_strategies_agree_on_content(self):
        contents = set()
        for cls in (ImmediateReceiver, ReorderReceiver, ReassembleReceiver):
            arrivals, payload = _timed_chunks(frames=6, shuffle_seed=2)
            receiver = _run(cls(), arrivals)
            contents.add(receiver.app.contents())
        assert contents == {payload}
