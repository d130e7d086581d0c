"""Receiver-side measurement: arrival records and disorder metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import Gauge, declare
from repro.obs import runtime as obs_runtime

__all__ = ["ArrivalRecord", "ReceiverTrace"]

#: ``publish()``'s value names and the gauges they are set on.
_GAUGES = {
    "arrivals": declare(
        Gauge, "netsim", "trace.arrivals", "frames recorded by the receiver trace"
    ),
    "late_arrivals": declare(
        Gauge, "netsim", "trace.late_arrivals", "frames behind a higher send index"
    ),
    "max_displacement": declare(
        Gauge, "netsim", "trace.max_displacement",
        "worst send-vs-arrival positional displacement",
    ),
    "disorder_fraction": declare(
        Gauge, "netsim", "trace.disorder_fraction", "late arrivals / arrivals"
    ),
}


@dataclass(frozen=True, slots=True)
class ArrivalRecord:
    """One delivered frame with its arrival time and send index."""

    time: float
    index: int
    size: int


@dataclass
class ReceiverTrace:
    """Collects arrivals and summarizes disorder and latency.

    The *index* is the sender-side emission order; disorder is measured
    as the fraction of arrivals whose index is smaller than an index
    already seen (late arrivals), plus the maximum displacement.
    """

    arrivals: list[ArrivalRecord] = field(default_factory=list)

    def record(self, time: float, index: int, size: int) -> None:
        self.arrivals.append(ArrivalRecord(time, index, size))

    @property
    def count(self) -> int:
        return len(self.arrivals)

    def late_arrivals(self) -> int:
        """Frames that arrived after a higher-index frame (disordered)."""
        high = -1
        late = 0
        for record in self.arrivals:
            if record.index < high:
                late += 1
            high = max(high, record.index)
        return late

    def disorder_fraction(self) -> float:
        return self.late_arrivals() / len(self.arrivals) if self.arrivals else 0.0

    def max_displacement(self) -> int:
        """Largest positional displacement between send and arrival order."""
        worst = 0
        for position, record in enumerate(self.arrivals):
            worst = max(worst, abs(record.index - position))
        return worst

    def publish(self) -> dict[str, float]:
        """Publish the disorder metrics as ``netsim`` gauges.

        Sets ``trace.arrivals``, ``trace.late_arrivals``,
        ``trace.max_displacement``, and ``trace.disorder_fraction`` on
        the active registry (a no-op when none is installed) and
        returns the published values.
        """
        values = {
            "arrivals": float(self.count),
            "late_arrivals": float(self.late_arrivals()),
            "max_displacement": float(self.max_displacement()),
            "disorder_fraction": self.disorder_fraction(),
        }
        registry = obs_runtime._registry
        if registry is not None:
            for name, key in _GAUGES.items():
                registry.instruments[key].set(values[name])
        return values

    def latency_of(self, send_times: dict[int, float]) -> list[float]:
        """Per-frame latency given the sender's emission timestamps."""
        return [
            record.time - send_times[record.index]
            for record in self.arrivals
            if record.index in send_times
        ]
