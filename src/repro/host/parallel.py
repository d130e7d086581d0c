"""Distributed/parallel chunk processing (Appendix A, Section 3.2).

Appendix A: "Chunks also simplify distributed protocol processing
because they can be demultiplexed via the TYPE field and routed to the
appropriate processing units.  Individual processing units are
responsible for knowing which chunk (ID, SN, ST) tuple to use."

Section 3.2: splitting a chunk means "multiple (ID, SN, ST) tuples must
be manipulated rather than a single (ID, SN, ST) tuple.  Such
manipulation can be done in parallel."

Two models here:

- :class:`TypeDemux` — a dispatch fabric routing each chunk, by TYPE,
  to a registered processing unit; one context retrieval per chunk is
  counted (the "single context retrieval per chunk" property of
  Section 2), and per-unit busy time yields the parallel speedup a
  hardware implementation would see;
- :func:`parallel_split` — the Appendix C split with the three framing
  levels advanced by independent workers, verified identical to the
  sequential algorithm (the Section 3.2 parallelism claim made
  concrete).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.chunk import Chunk
from repro.core.errors import FragmentationError, ReproError
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType

__all__ = ["ProcessingUnit", "TypeDemux", "parallel_split"]


@dataclass
class ProcessingUnit:
    """One processing unit behind the TYPE demultiplexer.

    Attributes:
        name: label for reporting.
        handler: per-chunk work; returns anything (collected).
        cost_per_byte: simulated seconds of unit time per payload byte.
        cost_per_chunk: simulated seconds per chunk (context retrieval,
            header parse — the fixed per-chunk overhead).
    """

    name: str
    handler: Callable[[Chunk], object]
    cost_per_byte: float = 1e-9
    cost_per_chunk: float = 1e-7

    busy_time: float = field(default=0.0, init=False)
    chunks_handled: int = field(default=0, init=False)
    bytes_handled: int = field(default=0, init=False)
    results: list = field(default_factory=list, init=False)

    def process(self, chunk: Chunk) -> None:
        self.chunks_handled += 1
        self.bytes_handled += chunk.payload_bytes
        self.busy_time += self.cost_per_chunk + chunk.payload_bytes * self.cost_per_byte
        self.results.append(self.handler(chunk))


@dataclass
class TypeDemux:
    """Route chunks to processing units by their explicit TYPE field.

    The fixed-field TYPE byte means dispatch is a single table lookup —
    no positional parsing, no per-protocol branching (contrast the IP
    receiver of the APP-B bench).  Unrouted types go to an optional
    default unit or raise.
    """

    units: dict[ChunkType, ProcessingUnit] = field(default_factory=dict)
    default: ProcessingUnit | None = None
    context_retrievals: int = field(default=0, init=False)
    dispatched: int = field(default=0, init=False)

    def register(self, chunk_type: ChunkType, unit: ProcessingUnit) -> None:
        self.units[chunk_type] = unit

    def dispatch(self, chunk: Chunk) -> None:
        """One chunk in: one context retrieval, one unit handles it."""
        self.context_retrievals += 1  # shared TYPE/IDs: exactly one per chunk
        unit = self.units.get(chunk.type, self.default)
        if unit is None:
            raise ReproError(f"no processing unit for TYPE={chunk.type.name}")
        unit.process(chunk)
        self.dispatched += 1

    def dispatch_all(self, chunks: list[Chunk]) -> None:
        for chunk in chunks:
            self.dispatch(chunk)

    # ---- parallelism accounting --------------------------------------

    def serial_time(self) -> float:
        """Total work if one engine did everything."""
        return sum(unit.busy_time for unit in self._all_units())

    def parallel_time(self) -> float:
        """Makespan with one engine per unit (the hardware picture)."""
        return max((unit.busy_time for unit in self._all_units()), default=0.0)

    def speedup(self) -> float:
        parallel = self.parallel_time()
        return self.serial_time() / parallel if parallel else 1.0

    def _all_units(self):
        units = list(self.units.values())
        if self.default is not None and self.default not in units:
            units.append(self.default)
        return units


def _advance_level(label: FramingTuple, cut: int, final: bool) -> tuple[FramingTuple, FramingTuple]:
    """One framing level's half of the split — an independent worker."""
    return label.head(), (label.tail(cut) if final else label.advanced(cut))


def parallel_split(chunk: Chunk, new_len: int) -> tuple[Chunk, Chunk]:
    """Appendix C's split with per-level label work done independently.

    Each framing level's (ID, SN, ST) manipulation touches only that
    level's tuple, so the three levels are computed by three independent
    "workers" (here: three calls with no shared state) and the results
    assembled — demonstrating Section 3.2's "such manipulation can be
    done in parallel".  Output is bit-identical to
    :func:`repro.core.fragment.split`.
    """
    if chunk.is_control:
        raise FragmentationError("control chunks are indivisible")
    if not 0 < new_len < chunk.length:
        raise FragmentationError(f"new_len must be in 1..{chunk.length - 1}")
    # The three independent level workers:
    (c_head, c_tail) = _advance_level(chunk.c, new_len, final=True)
    (t_head, t_tail) = _advance_level(chunk.t, new_len, final=True)
    (x_head, x_tail) = _advance_level(chunk.x, new_len, final=True)
    cut = new_len * chunk.unit_bytes
    head = chunk.replace(
        length=new_len, c=c_head, t=t_head, x=x_head,
        payload=chunk.payload[:cut],
    )
    tail = chunk.replace(
        length=chunk.length - new_len, c=c_tail, t=t_tail, x=x_tail,
        payload=chunk.payload[cut:],
    )
    return head, tail
