"""Unit tests for multipath striping: skew must cause reorder."""

from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.paper.multipath import MultipathChannel, aurora_stripe
from repro.paper.trace import ReceiverTrace


def _send_indexed(channel, count, size=1000):
    for index in range(count):
        channel.send(index.to_bytes(4, "big") + b"\x00" * (size - 4))


def _trace_receiver(loop):
    trace = ReceiverTrace()

    def deliver(frame):
        trace.record(loop.now, int.from_bytes(frame[:4], "big"), len(frame))

    return trace, deliver


class TestStriping:
    def test_round_robin_assignment(self):
        loop = EventLoop()
        counts = [0, 0, 0]
        links = [
            Link(loop, lambda f: None, rate_bps=1e9, delay=0.001)
            for _ in range(3)
        ]
        channel = MultipathChannel(links)
        for _ in range(9):
            channel.send(b"x" * 100)
        assert [l.stats.frames_in for l in links] == [3, 3, 3]

    def test_skew_causes_reorder(self):
        """The Section 1 scenario: parallel paths with skew disorder
        packets even with zero loss."""
        loop = EventLoop()
        trace, deliver = _trace_receiver(loop)
        channel = aurora_stripe(loop, deliver, paths=8, skew=0.0005)
        _send_indexed(channel, 64)
        loop.run()
        assert trace.count == 64
        assert trace.late_arrivals() > 0
        assert trace.disorder_fraction() > 0.1

    def test_zero_skew_preserves_order(self):
        loop = EventLoop()
        trace, deliver = _trace_receiver(loop)
        channel = aurora_stripe(loop, deliver, paths=8, skew=0.0)
        _send_indexed(channel, 64)
        loop.run()
        assert trace.late_arrivals() == 0

    def test_more_skew_more_displacement(self):
        displacements = []
        for skew in (0.0001, 0.001):
            loop = EventLoop()
            trace, deliver = _trace_receiver(loop)
            channel = aurora_stripe(loop, deliver, paths=8, skew=skew)
            _send_indexed(channel, 128)
            loop.run()
            displacements.append(trace.max_displacement())
        assert displacements[1] >= displacements[0]

    def test_aggregate_counters(self):
        loop = EventLoop()
        trace, deliver = _trace_receiver(loop)
        channel = aurora_stripe(loop, deliver, paths=4)
        _send_indexed(channel, 20)
        loop.run()
        assert channel.frames_in == 20
        assert channel.frames_delivered == 20


class TestTrace:
    def test_disorder_fraction_empty(self):
        assert ReceiverTrace().disorder_fraction() == 0.0

    def test_latency_of(self):
        trace = ReceiverTrace()
        trace.record(1.5, 0, 10)
        trace.record(2.5, 1, 10)
        latencies = trace.latency_of({0: 1.0, 1: 1.0})
        assert latencies == [0.5, 1.5]

    def test_max_displacement_in_order(self):
        trace = ReceiverTrace()
        for i in range(5):
            trace.record(float(i), i, 1)
        assert trace.max_displacement() == 0
