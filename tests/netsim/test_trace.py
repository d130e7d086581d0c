"""Unit tests for receiver-side trace metrics."""

import pytest

from repro.obs import session
from repro.paper.trace import ArrivalRecord, ReceiverTrace


def _trace(indices, t0=0.0, dt=1.0):
    trace = ReceiverTrace()
    for position, index in enumerate(indices):
        trace.record(t0 + position * dt, index, 100)
    return trace


class TestDisorderMetrics:
    def test_in_order_has_no_late_arrivals(self):
        assert _trace([0, 1, 2, 3]).late_arrivals() == 0

    def test_single_swap(self):
        trace = _trace([0, 2, 1, 3])
        assert trace.late_arrivals() == 1
        assert trace.disorder_fraction() == pytest.approx(0.25)

    def test_fully_reversed(self):
        trace = _trace([3, 2, 1, 0])
        assert trace.late_arrivals() == 3
        assert trace.max_displacement() == 3

    def test_late_is_relative_to_running_maximum(self):
        # 5 arrives early; 1..4 are all late relative to it.
        trace = _trace([5, 1, 2, 3, 4, 0])
        assert trace.late_arrivals() == 5

    def test_displacement_of_in_order(self):
        assert _trace([0, 1, 2]).max_displacement() == 0

    def test_count(self):
        assert _trace([0, 1, 2]).count == 3

    def test_empty_trace(self):
        trace = ReceiverTrace()
        assert trace.late_arrivals() == 0
        assert trace.disorder_fraction() == 0.0
        assert trace.max_displacement() == 0


class TestPublish:
    """publish() exposes the disorder metrics as netsim gauges."""

    def _gauges(self, registry):
        return {
            name: registry.get("netsim", f"trace.{name}").value
            for name in (
                "arrivals",
                "late_arrivals",
                "max_displacement",
                "disorder_fraction",
            )
        }

    def test_empty_trace_publishes_zeros(self):
        with session() as (registry, _):
            values = ReceiverTrace().publish()
            assert values == {
                "arrivals": 0.0,
                "late_arrivals": 0.0,
                "max_displacement": 0.0,
                "disorder_fraction": 0.0,
            }
            assert self._gauges(registry) == values

    def test_all_in_order(self):
        with session() as (registry, _):
            values = _trace([0, 1, 2, 3]).publish()
            assert values["arrivals"] == 4.0
            assert values["late_arrivals"] == 0.0
            assert values["max_displacement"] == 0.0
            assert values["disorder_fraction"] == 0.0
            assert self._gauges(registry) == values

    def test_fully_reversed(self):
        with session() as (registry, _):
            values = _trace([4, 3, 2, 1, 0]).publish()
            assert values["arrivals"] == 5.0
            assert values["late_arrivals"] == 4.0
            assert values["max_displacement"] == 4.0
            assert values["disorder_fraction"] == pytest.approx(0.8)
            assert self._gauges(registry) == values

    def test_publish_without_registry_is_pure(self):
        # No registry installed: publish still returns the values and
        # must not raise (null-sink behavior).
        values = _trace([1, 0]).publish()
        assert values["late_arrivals"] == 1.0


class TestLatency:
    def test_latency_of_known_sends(self):
        trace = _trace([0, 1], t0=5.0, dt=1.0)
        latencies = trace.latency_of({0: 4.0, 1: 4.5})
        assert latencies == [1.0, 1.5]

    def test_unknown_indices_skipped(self):
        trace = _trace([0, 9], t0=1.0)
        assert trace.latency_of({0: 0.5}) == [0.5]

    def test_record_fields(self):
        record = ArrivalRecord(time=1.5, index=7, size=42)
        assert (record.time, record.index, record.size) == (1.5, 7, 42)
