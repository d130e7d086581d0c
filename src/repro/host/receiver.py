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
them directly.  Each models one conversation: state is keyed by C.SN or
T.ID alone, never by C.ID.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chunk import Chunk
from repro.core.intervals import IntervalSet
from repro.host.delivery import PlacementBuffer
from repro.host.memory import TouchLedger
from repro.obs import Gauge, Tallies, declare
from repro.obs import runtime as obs_runtime

__all__ = [
    "DeliveryEvent",
    "HostReceiver",
    "ImmediateReceiver",
    "ReorderReceiver",
    "ReassembleReceiver",
]

#: Published once per ``on_chunk`` / ``finish`` call.
_TALLIES = Tallies({
    "deliveries": ("host", "deliveries", "byte ranges handed to the application"),
    "delivered_bytes": ("host", "delivered_bytes", "payload bytes delivered"),
})
_REORDER_BUFFER = declare(
    Gauge, "host", "reorder_buffer_bytes", "bytes parked in the temporal reorder buffer"
)
_REASSEMBLY_BUFFER = declare(
    Gauge, "host", "reassembly_buffer_bytes", "bytes parked in per-TPDU reassembly buffers"
)


def _set(key: tuple[str, str], value: int) -> None:
    """Set gauge *key* on the installed registry, if any."""
    registry = obs_runtime._registry
    if registry is not None:
        registry.instruments[key].set(value)


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
    deliveries: int = 0
    delivered_bytes: int = 0

    # ---- metrics -----------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        return self.delivered_bytes

    def mean_added_latency(self) -> float:
        total = self.payload_bytes
        if total == 0:
            return 0.0
        return sum(e.added_latency * e.nbytes for e in self.events) / total

    def max_added_latency(self) -> float:
        return max((e.added_latency for e in self.events), default=0.0)

    def touches_per_byte(self) -> float:
        return self.ledger.touches_per_payload_byte(self.payload_bytes)

    # ---- common helpers ----------------------------------------------

    def _deliver(self, arrival: float, now: float, offset: int, data: bytes) -> None:
        self.app.place(offset, data)
        self._record_delivery(arrival, now, offset, len(data))

    def _record_delivery(self, arrival: float, now: float, offset: int, nbytes: int) -> None:
        self.events.append(DeliveryEvent(arrival, now, offset, nbytes))
        self.deliveries += 1
        self.delivered_bytes += nbytes

    def on_chunk(self, now: float, chunk: Chunk) -> None:
        """Receive one chunk at simulated time *now*."""
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        self._on_chunk(now, chunk)
        if before is not None:
            _TALLIES.publish(before, self)

    def finish(self, now: float) -> None:
        """End of run: hand over whatever is still held."""
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        self._finish(now)
        if before is not None:
            _TALLIES.publish(before, self)

    def _on_chunk(self, now: float, chunk: Chunk) -> None:
        raise NotImplementedError

    def _finish(self, now: float) -> None:
        raise NotImplementedError


@dataclass
class ImmediateReceiver(HostReceiver):
    """Process chunks as they arrive; place payload straight into the
    application address space (spatial reordering).  One bus crossing
    per byte; zero added latency; zero reorder buffer."""

    def _on_chunk(self, now: float, chunk: Chunk) -> None:
        if chunk.is_control:
            return
        offset = chunk.c_sn * chunk.unit_bytes
        fresh = self.app.place(offset, chunk.payload)
        if fresh == 0:
            return  # duplicate: skip, do not re-touch
        self.ledger.record("nic-to-app", len(chunk.payload))
        self._record_delivery(now, now, offset, len(chunk.payload))

    def _finish(self, now: float) -> None:  # nothing pending, ever
        return


@dataclass
class ReorderReceiver(HostReceiver):
    """Conventional temporal reordering: deliver strictly in C.SN order.

    In-order chunks pass through (one crossing); out-of-order chunks sit
    in a reorder buffer (one crossing in, one out), and their delivery
    waits for the gap to fill — the buffering latency the paper blames.

    Only the units a chunk adds to those delivered or parked are moved:
    parked pieces are disjoint and no byte is delivered twice.  A re-sent
    byte is neither compared nor moved again, so the first copy wins, as
    in the TCP reorder queue this models (its named overlap-table row).
    """

    next_sn: int = field(default=0, init=False)  # _seen holds every unit below it
    #: C.SN -> (arrival, end C.SN, stream offset, payload) of a parked piece.
    _buffer: dict[int, tuple[float, int, int, bytes]] = field(default_factory=dict)
    _seen: IntervalSet = field(default_factory=IntervalSet, init=False)
    peak_buffer_bytes: int = 0

    def _on_chunk(self, now: float, chunk: Chunk) -> None:
        if chunk.is_control:
            return
        sn, unit, payload = chunk.c_sn, chunk.unit_bytes, chunk.payload
        for lo, hi in self._seen.insert(sn, sn + chunk.length):
            data = payload[(lo - sn) * unit : (hi - sn) * unit]
            if lo == self.next_sn:
                self.ledger.record("nic-to-app", len(data))
                self._deliver(now, now, lo * unit, data)
                self.next_sn = hi
                self._drain(now)
            else:
                self.ledger.record("nic-to-buffer", len(data))
                self._buffer[lo] = (now, hi, lo * unit, data)
                occupancy = self.buffered_bytes
                self.peak_buffer_bytes = max(self.peak_buffer_bytes, occupancy)
                _set(_REORDER_BUFFER, occupancy)

    def _drain(self, now: float) -> None:
        while self.next_sn in self._buffer:
            arrival, self.next_sn, offset, data = self._buffer.pop(self.next_sn)
            self.ledger.record("buffer-to-app", len(data))
            self._deliver(arrival, now, offset, data)
        _set(_REORDER_BUFFER, self.buffered_bytes)

    def _finish(self, now: float) -> None:
        """Deliver whatever remains (end-of-run flush past any holes)."""
        for sn in sorted(self._buffer):
            arrival, _, offset, data = self._buffer.pop(sn)
            self.ledger.record("buffer-to-app", len(data))
            self._deliver(arrival, now, offset, data)
        _set(_REORDER_BUFFER, 0)

    @property
    def buffered_bytes(self) -> int:
        return sum(len(data) for *_, data in self._buffer.values())


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

    def _on_chunk(self, now: float, chunk: Chunk) -> None:
        if chunk.is_control or chunk.t_id in self._delivered:
            return
        state = self._tpdus.setdefault(chunk.t_id, _TpduBuffer())
        fresh = state.add(now, chunk)
        if fresh == 0:
            return
        self.ledger.record("nic-to-buffer", fresh)
        self._occupancy += fresh
        self.peak_buffer_bytes = max(self.peak_buffer_bytes, self._occupancy)
        _set(_REASSEMBLY_BUFFER, self._occupancy)
        if state.complete:
            data = state.buffer.contents()
            self.ledger.record("buffer-to-app", len(data))
            self._occupancy -= len(data)
            _set(_REASSEMBLY_BUFFER, self._occupancy)
            self._deliver(state.weighted_arrival(), now, state.stream_offset, data)
            del self._tpdus[chunk.t_id]
            self._delivered.add(chunk.t_id)

    def _finish(self, now: float) -> None:
        """Flush incomplete TPDUs at end of run (delivered with holes)."""
        for state in self._tpdus.values():
            data = state.buffer.contents()
            if not data:
                continue
            self.ledger.record("buffer-to-app", len(data))
            self._occupancy -= state.buffer.bytes_placed
            self._deliver(state.weighted_arrival(), now, state.stream_offset, data)
        self._tpdus.clear()
        _set(_REASSEMBLY_BUFFER, max(0, self._occupancy))

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
