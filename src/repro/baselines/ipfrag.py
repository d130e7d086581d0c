"""IP-style fragmentation and reassembly (the conventional comparator).

IP [POST 81] labels fragments with (identification, fragment offset,
more-fragments): a single-level (T.ID, T.SN, T.ST) tuple in the paper's
vocabulary (Appendix B).  Fragments carry no higher-layer framing, so a
receiver must *physically reassemble* a datagram before the transport
layer can process it — the two data touches the paper wants to avoid —
and bounded reassembly buffers suffer **lock-up**: "Reassembly buffer
lock-up occurs when the reassembly buffer is filled completely and yet
no single PDU is complete" (Section 3.3, citing [KENT 87]).

This module implements fragmentation on 8-byte boundaries, a
capacity-bounded reassembler that reports lock-up events, and the
never-combine property of IP ("IP fragmentation never combines
fragments in the network", Section 3.2).

Overlaps follow a named policy, not the chunk receiver's verdict table:
**last-wins**.  A fragment that brings at least one byte not yet held
writes every byte it carries over what is there; a fragment wholly
held is a duplicate, dropped unseen (its more-fragments bit too); and a
completed datagram is handed up and forgotten, so a late full copy
completes it a second time.  Reassemblers that resolve the same
overlapping bytes differently are the evasion Aubard et al. tabulate
("Overlapping data in network protocols", PAPERS.md); the chunk
receiver refuses a disagreeing overlap instead.  The row is the
``IpReassembler`` column of ``tests/properties/test_overlap_verdicts.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.intervals import IntervalSet

__all__ = [
    "IP_HEADER_BYTES",
    "FRAG_UNIT",
    "IpFragment",
    "fragment_datagram",
    "refragment",
    "IpReassembler",
    "ReassemblyBufferStats",
]

#: IPv4 header without options.
IP_HEADER_BYTES = 20

#: IP fragment offsets count 8-byte units.
FRAG_UNIT = 8

#: An IPv4 datagram (total length field is 16 bits) never exceeds this.
MAX_DATAGRAM_BYTES = 65535


@dataclass(frozen=True, slots=True)
class IpFragment:
    """One IP fragment (the header fields that matter to reassembly)."""

    ident: int
    offset_units: int
    more_fragments: bool
    payload: bytes

    @property
    def offset_bytes(self) -> int:
        return self.offset_units * FRAG_UNIT

    @property
    def wire_bytes(self) -> int:
        return IP_HEADER_BYTES + len(self.payload)


def fragment_datagram(ident: int, payload: bytes, mtu: int) -> list[IpFragment]:
    """Split a datagram's payload into fragments fitting *mtu*.

    Every non-final fragment's payload is a multiple of 8 bytes, as IP
    requires.  A datagram that already fits yields one fragment with
    ``more_fragments=False``.
    """
    budget = mtu - IP_HEADER_BYTES
    if budget < FRAG_UNIT:
        raise ValueError(f"MTU {mtu} leaves no room for fragment payload")
    if IP_HEADER_BYTES + len(payload) <= mtu:
        return [IpFragment(ident, 0, False, payload)]
    step = (budget // FRAG_UNIT) * FRAG_UNIT
    fragments = []
    offset = 0
    while offset < len(payload):
        piece = payload[offset : offset + step]
        last = offset + len(piece) >= len(payload)
        fragments.append(
            IpFragment(ident, offset // FRAG_UNIT, not last, piece)
        )
        offset += len(piece)
    return fragments


def refragment(fragment: IpFragment, mtu: int) -> list[IpFragment]:
    """Fragment an existing fragment further (fragments of fragments).

    This is what an IP router does at a smaller-MTU hop; note it can
    only ever *split* — IP has no in-network combining (Section 3.2).
    """
    budget = mtu - IP_HEADER_BYTES
    if fragment.wire_bytes <= mtu:
        return [fragment]
    step = (budget // FRAG_UNIT) * FRAG_UNIT
    if step < FRAG_UNIT:
        raise ValueError(f"MTU {mtu} cannot carry an 8-byte fragment unit")
    pieces = []
    payload = fragment.payload
    offset = 0
    while offset < len(payload):
        piece = payload[offset : offset + step]
        last_piece = offset + len(piece) >= len(payload)
        pieces.append(
            IpFragment(
                fragment.ident,
                fragment.offset_units + offset // FRAG_UNIT,
                fragment.more_fragments or not last_piece,
                piece,
            )
        )
        offset += len(piece)
    return pieces


@dataclass
class ReassemblyBufferStats:
    """Counters for the bounded reassembly buffer."""

    fragments_in: int = 0
    duplicate_fragments: int = 0
    datagrams_completed: int = 0
    lockup_events: int = 0
    fragments_rejected: int = 0
    datagrams_evicted: int = 0
    peak_buffer_bytes: int = 0


@dataclass
class _PartialDatagram:
    received: IntervalSet = field(default_factory=IntervalSet)
    data: bytearray = field(default_factory=bytearray)
    total_bytes: int | None = None
    first_arrival: float = 0.0

    def buffered_bytes(self) -> int:
        return self.received.covered()


@dataclass
class IpReassembler:
    """Capacity-bounded IP reassembly with lock-up accounting.

    When a fragment arrives that would exceed *capacity_bytes* and no
    buffered datagram is complete, that is a **lock-up event**: the
    fragment is rejected (forcing a retransmission upstream), and if the
    condition persists the oldest partial datagram is evicted after
    *evict_after* simulated seconds, exactly the timeout dance that
    [KENT 87] complains about.  Chunks never enter this code path —
    their data lands directly in application memory.
    """

    capacity_bytes: int
    evict_after: float = 1.0
    stats: ReassemblyBufferStats = field(default_factory=ReassemblyBufferStats)
    _partials: dict[int, _PartialDatagram] = field(default_factory=dict)
    _buffered: int = field(default=0, init=False)

    def add_fragment(self, fragment: IpFragment, now: float = 0.0) -> bytes | None:
        """Insert a fragment; returns the payload of a completed datagram."""
        self.stats.fragments_in += 1
        partial = self._partials.get(fragment.ident)
        if partial is None:
            partial = _PartialDatagram(first_arrival=now)
            self._partials[fragment.ident] = partial

        start = fragment.offset_bytes
        end = start + len(fragment.payload)
        if end > MAX_DATAGRAM_BYTES:
            # Impossible for a legal IPv4 datagram: corrupted offset.
            self.stats.fragments_rejected += 1
            return None
        if partial.received.contains(start, end):
            self.stats.duplicate_fragments += 1
            return None

        fresh = len(fragment.payload) - partial.received.overlaps(start, end)
        if self._buffered + fresh > self.capacity_bytes:
            self.stats.lockup_events += 1
            self._maybe_evict(now)
            if self._buffered + fresh > self.capacity_bytes:
                self.stats.fragments_rejected += 1
                return None

        if len(partial.data) < end:
            partial.data.extend(b"\x00" * (end - len(partial.data)))
        partial.data[start:end] = fragment.payload
        added = partial.received.add(start, end)
        self._buffered += added
        self.stats.peak_buffer_bytes = max(self.stats.peak_buffer_bytes, self._buffered)
        if not fragment.more_fragments:
            partial.total_bytes = end

        if partial.total_bytes is not None and partial.received.is_complete(
            partial.total_bytes
        ):
            payload = bytes(partial.data[: partial.total_bytes])
            self._buffered -= partial.received.covered()
            del self._partials[fragment.ident]
            self.stats.datagrams_completed += 1
            return payload
        return None

    def _maybe_evict(self, now: float) -> None:
        """Evict timed-out partial datagrams to break the lock-up."""
        stale = [
            ident
            for ident, partial in self._partials.items()
            if now - partial.first_arrival >= self.evict_after
        ]
        for ident in stale:
            partial = self._partials.pop(ident)
            self._buffered -= partial.received.covered()
            self.stats.datagrams_evicted += 1

    @property
    def buffered_bytes(self) -> int:
        return self._buffered

    @property
    def partial_count(self) -> int:
        return len(self._partials)
