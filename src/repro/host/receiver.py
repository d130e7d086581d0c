"""The three receiver architectures of Section 3.3.

"There are several options: let the application deal with reassembly;
reorder data before passing to application; reassemble data into larger
blocks (e.g., complete PDUs) before passing to application...  passing
data to the application as it arrives has both latency and throughput
advantages over reordering and reassembly.  Immediate packet processing
minimizes data movement, while reassembly requires two accesses to each
piece of data...  Reordering is somewhere in-between and the number of
times that data must be accessed depends on the amount of disordering
in the network."

Each strategy consumes the *same* timestamped chunk arrivals and
records (a) byte movements in a :class:`TouchLedger` and (b) per-range
delivery events, so the CLAIM-LAT and CLAIM-TOUCH benches can compare
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chunk import Chunk
from repro.host.delivery import PlacementBuffer
from repro.host.memory import TouchLedger
from repro.obs import counter, gauge

__all__ = [
    "DeliveryEvent",
    "HostReceiver",
    "ImmediateReceiver",
    "ReorderReceiver",
    "ReassembleReceiver",
]

_OBS_DELIVERIES = counter("host", "deliveries", "byte ranges handed to the application")
_OBS_DELIVERED_BYTES = counter("host", "delivered_bytes", "payload bytes delivered")
_OBS_REORDER_BUFFER = gauge(
    "host", "reorder_buffer_bytes", "bytes parked in the temporal reorder buffer"
)
_OBS_REASSEMBLY_BUFFER = gauge(
    "host", "reassembly_buffer_bytes", "bytes parked in per-TPDU reassembly buffers"
)


@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """One contiguous byte range handed to the application."""

    arrival: float     # when the bytes reached the host
    delivered: float   # when the application could use them
    offset: int        # stream offset (C.SN * unit bytes)
    nbytes: int

    @property
    def added_latency(self) -> float:
        """Host-added residence time (zero for immediate processing)."""
        return self.delivered - self.arrival


@dataclass
class HostReceiver:
    """Shared bookkeeping for the three strategies."""

    ledger: TouchLedger = field(default_factory=TouchLedger)
    events: list[DeliveryEvent] = field(default_factory=list)
    app: PlacementBuffer = field(default_factory=PlacementBuffer)

    # ---- metrics -----------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        return sum(event.nbytes for event in self.events)

    def mean_added_latency(self) -> float:
        total = self.payload_bytes
        if total == 0:
            return 0.0
        return sum(e.added_latency * e.nbytes for e in self.events) / total

    def max_added_latency(self) -> float:
        return max((e.added_latency for e in self.events), default=0.0)

    def touches_per_byte(self) -> float:
        return self.ledger.touches_per_payload_byte(self.payload_bytes)

    def last_delivery_time(self) -> float:
        return max((e.delivered for e in self.events), default=0.0)

    # ---- common helpers ----------------------------------------------

    def _deliver(self, arrival: float, now: float, offset: int, data: bytes) -> None:
        self.app.place(offset, data)
        self.events.append(DeliveryEvent(arrival, now, offset, len(data)))
        _OBS_DELIVERIES.inc()
        _OBS_DELIVERED_BYTES.inc(len(data))


@dataclass
class ImmediateReceiver(HostReceiver):
    """Process chunks as they arrive; place payload straight into the
    application address space (spatial reordering).  One bus crossing
    per byte; zero added latency; zero reorder buffer."""

    def on_chunk(self, now: float, chunk: Chunk) -> None:
        if chunk.is_control:
            return
        offset = chunk.c_sn * chunk.unit_bytes
        fresh = self.app.place(offset, chunk.payload)
        if fresh == 0:
            return  # duplicate: skip, do not re-touch
        self.ledger.record("nic-to-app", len(chunk.payload))
        self.events.append(DeliveryEvent(now, now, offset, len(chunk.payload)))
        _OBS_DELIVERIES.inc()
        _OBS_DELIVERED_BYTES.inc(len(chunk.payload))

    def finish(self, now: float) -> None:  # nothing pending, ever
        return


@dataclass
class ReorderReceiver(HostReceiver):
    """Conventional temporal reordering: deliver strictly in C.SN order.

    In-order chunks pass through (one crossing); out-of-order chunks sit
    in a reorder buffer (one crossing in, one out), and their delivery
    waits for the gap to fill — the buffering latency the paper blames.
    """

    next_sn: int = 0
    _buffer: dict[int, tuple[float, Chunk]] = field(default_factory=dict)
    peak_buffer_bytes: int = 0

    def on_chunk(self, now: float, chunk: Chunk) -> None:
        if chunk.is_control:
            return
        if chunk.c_sn < self.next_sn or chunk.c_sn in self._buffer:
            return  # duplicate
        if chunk.c_sn == self.next_sn:
            self.ledger.record("nic-to-app", len(chunk.payload))
            self._deliver(now, now, chunk.c_sn * chunk.unit_bytes, chunk.payload)
            self.next_sn += chunk.length
            self._drain(now)
        else:
            self.ledger.record("nic-to-buffer", len(chunk.payload))
            self._buffer[chunk.c_sn] = (now, chunk)
            occupancy = sum(len(c.payload) for _, c in self._buffer.values())
            self.peak_buffer_bytes = max(self.peak_buffer_bytes, occupancy)
            _OBS_REORDER_BUFFER.set(occupancy)

    def _drain(self, now: float) -> None:
        while self.next_sn in self._buffer:
            arrival, chunk = self._buffer.pop(self.next_sn)
            self.ledger.record("buffer-to-app", len(chunk.payload))
            self._deliver(arrival, now, chunk.c_sn * chunk.unit_bytes, chunk.payload)
            self.next_sn += chunk.length
        _OBS_REORDER_BUFFER.set(self.buffered_bytes)

    def finish(self, now: float) -> None:
        """Deliver whatever remains (end-of-run flush past any holes)."""
        for sn in sorted(self._buffer):
            arrival, chunk = self._buffer.pop(sn)
            self.ledger.record("buffer-to-app", len(chunk.payload))
            self._deliver(arrival, now, chunk.c_sn * chunk.unit_bytes, chunk.payload)
        _OBS_REORDER_BUFFER.set(0)

    @property
    def buffered_bytes(self) -> int:
        return sum(len(c.payload) for _, c in self._buffer.values())


@dataclass
class ReassembleReceiver(HostReceiver):
    """Physically reassemble each TPDU before processing.

    Every byte is written into the reassembly buffer on arrival and read
    back out when its TPDU completes — the two crossings of Section 1 —
    and no byte reaches the application before its whole TPDU does.
    """

    _tpdus: dict[int, "_TpduBuffer"] = field(default_factory=dict)
    #: TPDUs already handed to the application: a late duplicate is
    #: skipped, never parked again or delivered twice.
    _delivered: set[int] = field(default_factory=set)
    peak_buffer_bytes: int = 0
    _occupancy: int = field(default=0, init=False)

    def on_chunk(self, now: float, chunk: Chunk) -> None:
        if chunk.is_control or chunk.t_id in self._delivered:
            return
        state = self._tpdus.setdefault(chunk.t_id, _TpduBuffer())
        fresh = state.add(now, chunk)
        if fresh == 0:
            return
        self.ledger.record("nic-to-buffer", fresh)
        self._occupancy += fresh
        self.peak_buffer_bytes = max(self.peak_buffer_bytes, self._occupancy)
        _OBS_REASSEMBLY_BUFFER.set(self._occupancy)
        if state.complete:
            data = state.buffer.contents()
            self.ledger.record("buffer-to-app", len(data))
            self._occupancy -= len(data)
            _OBS_REASSEMBLY_BUFFER.set(self._occupancy)
            self._deliver(state.weighted_arrival(), now, state.stream_offset, data)
            del self._tpdus[chunk.t_id]
            self._delivered.add(chunk.t_id)

    def finish(self, now: float) -> None:
        """Flush incomplete TPDUs at end of run (delivered with holes)."""
        for state in self._tpdus.values():
            data = state.buffer.contents()
            if not data:
                continue
            self.ledger.record("buffer-to-app", len(data))
            self._occupancy -= state.buffer.bytes_placed
            self._deliver(state.weighted_arrival(), now, state.stream_offset, data)
        self._tpdus.clear()
        _OBS_REASSEMBLY_BUFFER.set(max(0, self._occupancy))

    @property
    def buffered_bytes(self) -> int:
        return self._occupancy


@dataclass
class _TpduBuffer:
    """Per-TPDU physical reassembly state."""

    buffer: PlacementBuffer = field(default_factory=PlacementBuffer)
    stream_offset: int = -1
    complete: bool = False
    _arrival_weight: float = 0.0
    _arrived_bytes: int = 0

    def add(self, now: float, chunk: Chunk) -> int:
        if self.stream_offset < 0 or (
            chunk.c_sn - chunk.t_sn
        ) * chunk.unit_bytes < self.stream_offset:
            self.stream_offset = (chunk.c_sn - chunk.t_sn) * chunk.unit_bytes
        # T.ST obeys the end-marker rule T/X/C obey on the immediate path:
        # the TPDU's size does not depend on which chunk arrived first.
        place = self.buffer.place_last if chunk.t_st else self.buffer.place
        fresh = place(chunk.t_sn * chunk.unit_bytes, chunk.payload)
        if fresh:
            self._arrival_weight += now * fresh
            self._arrived_bytes += fresh
        if self.buffer.is_complete():
            self.complete = True
        return fresh

    def weighted_arrival(self) -> float:
        if self._arrived_bytes == 0:
            return 0.0
        return self._arrival_weight / self._arrived_bytes
