"""Label-keyed provenance: per-chunk lifecycle journeys.

The paper's data labelling gives every chunk a self-describing identity
— C.ID plus position — that travels with the datum through every layer.
That label is therefore a *free join key for observability*: each stage
a chunk crosses (formation, packing, the wire, demultiplexing,
placement, verification, delivery) can emit one record keyed by
``(c_id, offset, length)``, and a tool can reconstruct the chunk's full
causal timeline afterwards with **no** extra per-chunk state on the hot
path.  The hot path never holds more than the label it already carries.

Discipline mirrors :mod:`repro.obs.runtime`: instrumented modules fetch
the module-level :class:`JourneyHandle` once at import time::

    from repro.obs import journey_handle
    _OBS_JOURNEY = journey_handle()
    ...
    if _OBS_JOURNEY:                      # falsy while uninstalled
        _OBS_JOURNEY.chunk(STAGE_PLACED, chunk, fresh=n)

While no :class:`JourneyTracker` is installed the handle is falsy, so
the per-record argument packing is skipped entirely — one attribute
load and one truthiness check, zero allocations.

Unlike metric handles, journeys deliberately do **not** create registry
instruments: installing a journey must not change any registry's metric
snapshot (the perf comparator treats snapshot drift as a regression).
The tracker keeps its latency histograms privately.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from repro.core.errors import CodecError
from repro.obs.metrics import Histogram

__all__ = [
    "CHUNK_STAGES",
    "LEVELS",
    "StageRecord",
    "ChunkJourney",
    "JourneyTracker",
    "JourneyHandle",
    "journey_handle",
    "install_journey",
    "uninstall_journey",
    "active_journey",
    "bind_journey_clock",
    "journey_session",
    "frame_labels",
    "write_journal",
    "journal_records",
]

# Canonical chunk-level stage vocabulary, in lifecycle order.  Stages
# are plain strings so layers can extend the vocabulary (e.g. the
# bottleneck's "routed") without touching this module.
CHUNK_STAGES = (
    "formed",
    "packed",
    "link_tx",
    "dropped",
    "link_rx",
    "routed",
    "demux",
    "placed",
    "duplicate",
    "refused",
    "conflict",
    "retransmit",
)

#: Record granularities: per-chunk, per-TPDU (verification), per-frame
#: (delivery), and per-conversation (lifecycle).
LEVELS = ("chunk", "tpdu", "frame", "conn")


def _zero_clock() -> float:
    return 0.0


@dataclass(frozen=True, slots=True)
class StageRecord:
    """One lifecycle observation, keyed by the paper's label.

    ``level`` says what the key describes: ``chunk`` records carry the
    exact ``(c_id, offset, length)`` label; ``tpdu``/``frame``/``conn``
    records describe a coarser unit and hold the joining identifiers
    (``t_id``, ``x_id``) in ``fields`` with a zero position.
    """

    t: float
    stage: str
    c_id: int
    offset: int
    length: int
    gen: int = 0
    level: str = "chunk"
    fields: dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.c_id, self.offset, self.length)

    def as_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "kind": "provenance",
            "t": self.t,
            "stage": self.stage,
            "c_id": self.c_id,
            "offset": self.offset,
            "length": self.length,
            "gen": self.gen,
            "level": self.level,
        }
        if self.fields:
            record["fields"] = self.fields
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "StageRecord":
        fields = record.get("fields")
        return cls(
            t=float(record["t"]),  # type: ignore[arg-type]
            stage=str(record["stage"]),
            c_id=int(record["c_id"]),  # type: ignore[arg-type]
            offset=int(record["offset"]),  # type: ignore[arg-type]
            length=int(record["length"]),  # type: ignore[arg-type]
            gen=int(record.get("gen", 0)),  # type: ignore[arg-type]
            level=str(record.get("level", "chunk")),
            fields=dict(fields) if isinstance(fields, dict) else {},
        )


@dataclass
class ChunkJourney:
    """One chunk's reconstructed causal timeline.

    ``records`` are the chunk-level observations in emission order;
    ``tpdu_records``/``frame_records``/``conn_records`` are the joined
    coarser-grained records (verification verdicts for the chunk's
    T.IDs, delivery of its X.ID, the conversation's lifecycle events).
    """

    c_id: int
    offset: int
    length: int
    records: list[StageRecord] = field(default_factory=list)
    tpdu_records: list[StageRecord] = field(default_factory=list)
    frame_records: list[StageRecord] = field(default_factory=list)
    conn_records: list[StageRecord] = field(default_factory=list)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.c_id, self.offset, self.length)

    @property
    def stages(self) -> list[str]:
        return [record.stage for record in self.records]

    @property
    def generations(self) -> list[int]:
        """Retransmission generations observed (0 = first transmission)."""
        gens = {record.gen for record in self.records}
        gens.add(0)
        return sorted(gens)

    def timeline(self) -> list[StageRecord]:
        """Every joined record, ordered by (time, granularity)."""
        order = {level: index for index, level in enumerate(LEVELS)}
        merged = (
            self.records + self.tpdu_records + self.frame_records + self.conn_records
        )
        return sorted(merged, key=lambda r: (r.t, order.get(r.level, len(LEVELS))))

    @property
    def outcome(self) -> str:
        """The furthest fate this chunk reached."""
        stages = set(self.stages)
        if any(r.stage == "delivered" for r in self.frame_records):
            return "delivered"
        if "placed" in stages:
            return "placed"
        if "conflict" in stages:
            return "conflict"
        if "refused" in stages:
            return "refused"
        if "dropped" in stages:
            return "dropped"
        return "in_flight"

    def refusals(self) -> list[StageRecord]:
        return [r for r in self.records if r.stage in ("refused", "conflict")]


class JourneyTracker:
    """Collects stage records and answers per-chunk journey queries.

    The record buffer is bounded (``max_records``); past the bound new
    records are counted in ``dropped`` instead of stored — but the
    ``on_record`` sink (the flight recorder's ring buffers) still sees
    every record, so the black box keeps the *latest* history even when
    the global buffer saturated long ago.

    Three latency histograms follow the label through its life:

    - ``formation_to_delivery`` — chunk formed at the sender until its
      frame completed at the receiver;
    - ``first_tx_to_place`` — first wire transmission until the payload
      landed in application memory;
    - ``refusal_to_retry`` — a refusal (budget/bounds/conflict) until a
      later transmission generation finally placed the bytes.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        max_records: int = 200_000,
    ) -> None:
        self.clock: Callable[[], float] = clock or _zero_clock
        self.max_records = max_records
        self.records: list[StageRecord] = []
        self.dropped = 0
        #: flight-recorder seam: called with every record, bound or not.
        self.on_record: Callable[[StageRecord], None] | None = None
        self.latency: dict[str, Histogram] = {
            name: Histogram("provenance", f"latency.{name}")
            for name in (
                "formation_to_delivery",
                "first_tx_to_place",
                "refusal_to_retry",
            )
        }
        self._chunk_index: dict[tuple[int, int, int], list[int]] = {}
        self._tpdu_index: dict[tuple[int, int], list[int]] = {}
        self._frame_index: dict[tuple[int, int], list[int]] = {}
        self._conn_index: dict[int, list[int]] = {}
        self._frame_members: dict[tuple[int, int], set[tuple[int, int, int]]] = {}
        self._formed_at: dict[tuple[int, int, int], float] = {}
        self._first_tx: dict[tuple[int, int, int], float] = {}
        self._refused_at: dict[tuple[int, int, int], float] = {}
        self._delivered: set[tuple[int, int, int]] = set()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(
        self,
        stage: str,
        c_id: int,
        offset: int,
        length: int,
        *,
        t: float | None = None,
        gen: int = 0,
        level: str = "chunk",
        **fields: object,
    ) -> None:
        """Record one stage observation (``t`` defaults to the clock)."""
        stamp = self.clock() if t is None else t
        record = StageRecord(
            t=stamp,
            stage=stage,
            c_id=c_id,
            offset=offset,
            length=length,
            gen=gen,
            level=level,
            fields={k: v for k, v in fields.items() if v is not None},
        )
        if self.on_record is not None:
            self.on_record(record)
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        index = len(self.records)
        self.records.append(record)
        if level == "chunk":
            key = record.key
            self._chunk_index.setdefault(key, []).append(index)
            x_id = record.fields.get("x_id")
            if isinstance(x_id, int):
                self._frame_members.setdefault((c_id, x_id), set()).add(key)
            self._observe_latency(stage, key, stamp)
        elif level == "tpdu":
            t_id = record.fields.get("t_id")
            if isinstance(t_id, int):
                self._tpdu_index.setdefault((c_id, t_id), []).append(index)
        elif level == "frame":
            x_id = record.fields.get("x_id")
            if isinstance(x_id, int):
                self._frame_index.setdefault((c_id, x_id), []).append(index)
                if stage == "delivered":
                    self._observe_delivery(c_id, x_id, stamp)
        else:
            self._conn_index.setdefault(c_id, []).append(index)

    def _observe_latency(
        self, stage: str, key: tuple[int, int, int], stamp: float
    ) -> None:
        if stage == "formed":
            self._formed_at.setdefault(key, stamp)
        elif stage == "link_tx":
            self._first_tx.setdefault(key, stamp)
        elif stage in ("refused", "conflict"):
            self._refused_at[key] = stamp
        elif stage == "placed":
            first_tx = self._first_tx.get(key)
            if first_tx is not None:
                self.latency["first_tx_to_place"].observe(stamp - first_tx)
                del self._first_tx[key]
            refused = self._refused_at.pop(key, None)
            if refused is not None:
                self.latency["refusal_to_retry"].observe(stamp - refused)

    def _observe_delivery(self, c_id: int, x_id: int, stamp: float) -> None:
        for key in sorted(self._frame_members.get((c_id, x_id), ())):
            formed = self._formed_at.get(key)
            if formed is not None and key not in self._delivered:
                self._delivered.add(key)
                self.latency["formation_to_delivery"].observe(stamp - formed)

    def chunk(
        self,
        stage: str,
        chunk: object,
        *,
        t: float | None = None,
        gen: int = 0,
        **fields: object,
    ) -> None:
        """Emit a chunk-level record, deriving the label from *chunk*.

        Works with any object shaped like :class:`repro.core.chunk.
        Chunk` (flat ``c_id`` / ``c_sn`` / ``t_id`` / ``x_id`` fields,
        ``unit_bytes``, ``payload_bytes``) — the label is read off the
        record, never copied, held or rebuilt as framing tuples.
        """
        self.emit(
            stage,
            chunk.c_id,  # type: ignore[attr-defined]
            chunk.c_sn * chunk.unit_bytes,  # type: ignore[attr-defined]
            chunk.payload_bytes,  # type: ignore[attr-defined]
            t=t,
            gen=gen,
            t_id=chunk.t_id,  # type: ignore[attr-defined]
            x_id=chunk.x_id,  # type: ignore[attr-defined]
            **fields,
        )

    def frame(
        self,
        stage: str,
        frame: bytes,
        *,
        t: float | None = None,
        gen: int = 0,
        **fields: object,
    ) -> None:
        """Emit chunk-level records for every DATA chunk in a wire frame.

        Decoding happens *here*, only while a tracker is installed — the
        link keeps treating frames as opaque bytes.  Undecodable frames
        (corruption) emit nothing: a mangled label is no label.
        """
        for c_id, offset, length, t_id, x_id in frame_labels(frame):
            self.emit(
                stage, c_id, offset, length,
                t=t, gen=gen, t_id=t_id, x_id=x_id, **fields,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def keys(self) -> list[tuple[int, int, int]]:
        return sorted(self._chunk_index)

    def journey(
        self, c_id: int, offset: int, length: int
    ) -> ChunkJourney | None:
        """Reconstruct one chunk's journey, or None if never observed."""
        indices = self._chunk_index.get((c_id, offset, length))
        if not indices:
            return None
        records = [self.records[i] for i in indices]
        t_ids = sorted(
            {
                f for f in (r.fields.get("t_id") for r in records)
                if isinstance(f, int)
            }
        )
        x_ids = sorted(
            {
                f for f in (r.fields.get("x_id") for r in records)
                if isinstance(f, int)
            }
        )
        tpdu = [
            self.records[i]
            for t_id in t_ids
            for i in self._tpdu_index.get((c_id, t_id), ())
        ]
        frame = [
            self.records[i]
            for x_id in x_ids
            for i in self._frame_index.get((c_id, x_id), ())
        ]
        conn = [self.records[i] for i in self._conn_index.get(c_id, ())]
        return ChunkJourney(
            c_id=c_id,
            offset=offset,
            length=length,
            records=records,
            tpdu_records=tpdu,
            frame_records=frame,
            conn_records=conn,
        )

    def journeys(self, c_id: int | None = None) -> list[ChunkJourney]:
        """Every observed chunk's journey, sorted by label."""
        out: list[ChunkJourney] = []
        for key in self.keys():
            if c_id is not None and key[0] != c_id:
                continue
            journey = self.journey(*key)
            if journey is not None:
                out.append(journey)
        return out

    def conversation_ids(self) -> list[int]:
        cids = {key[0] for key in self._chunk_index}
        cids.update(self._conn_index)
        return sorted(cids)

    def latency_summary(self) -> dict[str, dict[str, object]]:
        """The private latency histograms' exported state."""
        return {name: hist.sample() for name, hist in self.latency.items()}

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def replay(self, records: Iterable[Mapping[str, object]]) -> None:
        """Re-emit parsed ``kind == "provenance"`` records into this
        tracker (rebuilds indices and latency histograms)."""
        for raw in records:
            if raw.get("kind") != "provenance":
                continue
            record = StageRecord.from_dict(raw)
            self.emit(
                record.stage,
                record.c_id,
                record.offset,
                record.length,
                t=record.t,
                gen=record.gen,
                level=record.level,
                **record.fields,
            )


def frame_labels(frame: bytes) -> list[tuple[int, int, int, int, int]]:
    """The labels riding in a wire frame: (c_id, offset, length, t_id,
    x_id) per DATA chunk; empty for undecodable frames."""
    from repro.core.packet import Packet

    try:
        packet = Packet.decode(frame)
    except CodecError:
        return []
    return [
        (
            chunk.c_id,
            chunk.c_sn * chunk.unit_bytes,
            chunk.payload_bytes,
            chunk.t_id,
            chunk.x_id,
        )
        for chunk in packet.chunks
        if chunk.is_data
    ]


def journal_records(tracker: JourneyTracker) -> list[dict[str, object]]:
    """The tracker's contents as JSON-able records: every stage record
    plus one ``provenance-meta`` trailer (drop count, latency summary)."""
    records: list[dict[str, object]] = [r.as_dict() for r in tracker.records]
    records.append(
        {
            "kind": "provenance-meta",
            "records": len(tracker.records),
            "dropped_records": tracker.dropped,
            "latency": tracker.latency_summary(),
        }
    )
    return records


def write_journal(target: str | Path | IO[str], tracker: JourneyTracker) -> int:
    """Write the tracker as JSON lines; returns the line count.

    Deterministic: keys sorted, timestamps are simulated seconds — a
    seeded run produces a byte-identical journal.
    """
    lines = [
        json.dumps(record, sort_keys=True) for record in journal_records(tracker)
    ]
    text = "".join(line + "\n" for line in lines)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
    return len(lines)


# ----------------------------------------------------------------------
# The handle seam (null-sink discipline, mirroring runtime.py)
# ----------------------------------------------------------------------

class JourneyHandle:
    """The module-level seam instrumented code emits through.

    Falsy while no tracker is installed, so hot paths skip the keyword
    packing entirely: ``if _OBS_JOURNEY: _OBS_JOURNEY.chunk(...)``.
    """

    __slots__ = ("_impl",)

    def __init__(self) -> None:
        self._impl: JourneyTracker | None = None

    def __bool__(self) -> bool:
        return self._impl is not None

    def emit(
        self,
        stage: str,
        c_id: int,
        offset: int,
        length: int,
        *,
        t: float | None = None,
        gen: int = 0,
        level: str = "chunk",
        **fields: object,
    ) -> None:
        if self._impl is not None:
            self._impl.emit(
                stage, c_id, offset, length, t=t, gen=gen, level=level, **fields
            )

    def chunk(
        self,
        stage: str,
        chunk: object,
        *,
        t: float | None = None,
        gen: int = 0,
        **fields: object,
    ) -> None:
        if self._impl is not None:
            self._impl.chunk(stage, chunk, t=t, gen=gen, **fields)

    def frame(
        self,
        stage: str,
        frame: bytes,
        *,
        t: float | None = None,
        gen: int = 0,
        **fields: object,
    ) -> None:
        if self._impl is not None:
            self._impl.frame(stage, frame, t=t, gen=gen, **fields)

    def _bind(self, tracker: JourneyTracker | None) -> None:
        self._impl = tracker


_HANDLE = JourneyHandle()
_tracker: JourneyTracker | None = None


def journey_handle() -> JourneyHandle:
    """The process-wide journey handle (declare once at import time)."""
    return _HANDLE


def install_journey(
    tracker: JourneyTracker | None = None,
    clock: Callable[[], float] | None = None,
) -> JourneyTracker:
    """Make *tracker* (fresh when omitted) the active journey sink."""
    global _tracker
    _tracker = tracker if tracker is not None else JourneyTracker()
    if clock is not None:
        _tracker.clock = clock
    _HANDLE._bind(_tracker)
    return _tracker


def uninstall_journey() -> None:
    """Return the journey handle to the null sink."""
    global _tracker
    _tracker = None
    _HANDLE._bind(None)


def active_journey() -> JourneyTracker | None:
    return _tracker


def bind_journey_clock(clock: Callable[[], float]) -> None:
    """Point the active tracker's clock at *clock* (no-op uninstalled).

    Scenario runners that build their own event loop call this so that
    records emitted from clock-less layers (the transport receiver)
    stamp simulated time; safe to call with no tracker installed.
    """
    if _tracker is not None:
        _tracker.clock = clock


@contextmanager
def journey_session(
    tracker: JourneyTracker | None = None,
    clock: Callable[[], float] | None = None,
) -> Iterator[JourneyTracker]:
    """Scope a journey installation to a ``with`` block; restores the
    previously active tracker (or the null sink) on exit."""
    previous = _tracker
    installed = install_journey(tracker, clock)
    try:
        yield installed
    finally:
        if previous is None:
            uninstall_journey()
        else:
            install_journey(previous)
