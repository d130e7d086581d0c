"""The RISC-workstation memory/bus cost model.

Section 1: "A major disadvantage of buffering data before processing in
RISC workstation architectures is that buffering requires moving the
data twice: once from network interface to memory (the buffer) and once
from memory to the processor.  Because the bus is often a throughput
bottleneck on RISC workstations, moving data across the bus twice can
decrease protocol processing throughput."

The paper's performance claims are *data-touch counts*; this module
makes them measurable.  A :class:`TouchLedger` records every byte
movement by kind; a :class:`BusModel` converts the ledger into bus
occupancy and an effective-throughput bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import counter
from repro.obs.runtime import CounterHandle

__all__ = ["TouchLedger", "BusModel"]

_OBS_TOUCH_TOTAL = counter("host", "touch_bytes_total", "bytes moved across the bus")
_KIND_COUNTERS: dict[str, CounterHandle] = {}


def _kind_counter(kind: str) -> CounterHandle:
    handle = _KIND_COUNTERS.get(kind)
    if handle is None:
        handle = counter("host", f"touch.{kind}_bytes", f"bytes moved {kind}")
        _KIND_COUNTERS[kind] = handle
    return handle


@dataclass
class TouchLedger:
    """Byte-movement accounting, grouped by a free-form kind label.

    Typical kinds: ``nic-to-app`` (single integrated pass),
    ``nic-to-buffer``, ``buffer-to-cpu``, ``cpu-to-app``.
    """

    touches: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        self.touches[kind] = self.touches.get(kind, 0) + nbytes
        _OBS_TOUCH_TOTAL.inc(nbytes)
        _kind_counter(kind).inc(nbytes)

    @property
    def total_bytes_moved(self) -> int:
        """Total bytes crossing the bus, all movements summed."""
        return sum(self.touches.values())

    def touches_per_payload_byte(self, payload_bytes: int) -> float:
        """Average number of bus crossings each payload byte paid."""
        if payload_bytes == 0:
            return 0.0
        return self.total_bytes_moved / payload_bytes


@dataclass(frozen=True)
class BusModel:
    """A simple shared-bus throughput model.

    Attributes:
        bus_bandwidth_bps: raw bus bandwidth in bits per second (the
            1990s workstation buses the paper targets ran around
            100-800 Mbps usable).
    """

    bus_bandwidth_bps: float = 400e6

    def bus_time(self, ledger: TouchLedger) -> float:
        """Seconds of bus occupancy to perform every recorded movement."""
        return ledger.total_bytes_moved * 8 / self.bus_bandwidth_bps

    def effective_throughput_bps(self, ledger: TouchLedger, payload_bytes: int) -> float:
        """Payload throughput when the bus is the bottleneck.

        With T touches per payload byte, effective throughput is
        bandwidth / T — the factor-of-two penalty the paper attributes
        to buffer-then-process architectures.
        """
        occupancy = self.bus_time(ledger)
        if occupancy == 0:
            return float("inf")
        return payload_bytes * 8 / occupancy
