"""Host-interface interrupt models (Section 3).

"Also, interrupts can be reduced if the host-network interface
interrupts only after complete PDUs have been received.  Such an
approach is suggested in [STER 90], and a host-network interface built
by Davie moves individual packets across a computer bus using DMA, but
generates interrupts only for complete PDUs [DAVI 91]."

Chunk labels are what make the Davie interface possible without
reassembly hardware: the NIC runs *virtual* reassembly (bookkeeping
only), DMAs payloads straight to their final addresses, and raises one
interrupt per completed TPDU instead of one per packet.

:class:`PerPacketNic` and :class:`PerPduNic` count interrupts and CPU
overhead for the same packet arrivals so the reduction is measurable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial

from repro.core.errors import CodecError, VirtualReassemblyError
from repro.core.packet import Packet
from repro.core.virtual import VirtualReassembler

__all__ = ["PerPacketNic", "PerPduNic"]


@dataclass
class PerPacketNic:
    """Conventional NIC: every arriving packet interrupts the CPU."""

    interrupt_cost: float = 5e-6  # seconds of CPU per interrupt

    interrupts: int = field(default=0, init=False)
    packets: int = field(default=0, init=False)

    def on_packet(self, frame: bytes) -> int:
        """Returns the number of interrupts raised (always 1)."""
        self.packets += 1
        self.interrupts += 1
        return 1

    @property
    def cpu_seconds(self) -> float:
        return self.interrupts * self.interrupt_cost


@dataclass
class PerPduNic:
    """Davie-style NIC: DMA per packet, interrupt per complete TPDU.

    The NIC parses chunk headers (cheap, fixed-field), DMAs payloads by
    label, and tracks TPDU completion with virtual reassembly, one
    tracker per C.ID because T.IDs are per conversation (Section 2); only
    a completed TPDU (or an unparseable frame, which needs software help)
    wakes the CPU.
    """

    interrupt_cost: float = 5e-6

    interrupts: int = field(default=0, init=False)
    packets: int = field(default=0, init=False)
    completed_tpdus: list[int] = field(default_factory=list, init=False)
    error_interrupts: int = field(default=0, init=False)
    _trackers: defaultdict[int, VirtualReassembler] = field(
        default_factory=lambda: defaultdict(partial(VirtualReassembler, level="t")), init=False
    )

    def on_packet(self, frame: bytes) -> int:
        """Returns the number of interrupts this arrival raised."""
        self.packets += 1
        try:
            packet = Packet.decode(frame)
        except CodecError:
            self.interrupts += 1  # garbage needs the CPU
            self.error_interrupts += 1
            return 1
        raised = 0
        for chunk in packet.chunks:
            if not chunk.is_data:
                continue
            try:
                arrival = self._trackers[chunk.c_id].record(chunk)
            except VirtualReassemblyError:
                self.interrupts += 1
                self.error_interrupts += 1
                raised += 1
                continue
            if arrival.completed:
                self.interrupts += 1
                self.completed_tpdus.append(chunk.t_id)
                raised += 1
        return raised

    @property
    def cpu_seconds(self) -> float:
        return self.interrupts * self.interrupt_cost
