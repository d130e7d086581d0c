"""The conversation flight recorder: a black box for failing runs.

A :class:`FlightRecorder` keeps one bounded ring buffer of the most
recent provenance records *per conversation*, fed by the active
:class:`~repro.obs.provenance.JourneyTracker`'s ``on_record`` seam.
Aggregate counters answer "how many"; the rings answer "what exactly
happened to conversation 7 just before things went wrong" — without
ever holding unbounded history.

Like the rest of :mod:`repro.obs`, the recorder costs nothing while
none is installed: :func:`flight_dump` is one global load and a
``None`` check, and the hot path pays nothing at all (the tracker's
``on_record`` is simply never set).

Dumps are written when something *fails*: the adversarial invariant
harness (:func:`repro.app.adversarial.check_invariants`) dumps before
re-raising, and the multiplexed endpoint dumps when it evicts a
conversation for stall.  Each dump is a
deterministic JSONL artifact — simulated timestamps only, sorted keys,
sequence-numbered filenames — so two same-seed runs produce
byte-identical black boxes.
"""

from __future__ import annotations

import json
import re
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Deque, Iterator

from repro.core.errors import ObsError
from repro.obs.provenance import StageRecord, active_journey
from repro.obs.runtime import active_registry
from repro.obs.snapshot import metric_snapshot

__all__ = [
    "FlightRecorder",
    "install_flight",
    "uninstall_flight",
    "active_flight",
    "flight_session",
    "flight_dump",
]

_SLUG_RE = re.compile(r"[^a-zA-Z0-9._-]+")


def _slug(text: str, limit: int = 60) -> str:
    slug = _SLUG_RE.sub("-", text).strip("-")
    return slug[:limit] or "dump"


class FlightRecorder:
    """Per-conversation ring buffers of recent provenance records.

    Attributes:
        ring_size: records retained per conversation (oldest dropped).
        dump_dir: directory dumps are written to; None disables file
            output (``dump`` then returns the records instead of a
            path, for in-memory inspection).
    """

    def __init__(
        self,
        ring_size: int = 256,
        dump_dir: str | Path | None = None,
    ) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        self.ring_size = ring_size
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.records_seen = 0
        self.dumps: list[Path] = []
        self._rings: dict[int, Deque[StageRecord]] = {}
        self._seq = 0

    # ------------------------------------------------------------------

    def observe(self, record: StageRecord) -> None:
        """The tracker's ``on_record`` sink: ring-buffer every record."""
        self.records_seen += 1
        ring = self._rings.get(record.c_id)
        if ring is None:
            ring = deque(maxlen=self.ring_size)
            self._rings[record.c_id] = ring
        ring.append(record)

    def conversation_ids(self) -> list[int]:
        return sorted(self._rings)

    def ring(self, c_id: int) -> list[StageRecord]:
        """The retained records for one conversation, oldest first."""
        return list(self._rings.get(c_id, ()))

    # ------------------------------------------------------------------

    def snapshot(self, trigger: str, tag: str = "") -> list[dict[str, object]]:
        """The dump's records: a meta header, per-conversation sections
        (the ring), and the full metric snapshot of the active registry
        (when one is installed).
        """
        records: list[dict[str, object]] = [
            {
                "kind": "flight-meta",
                "trigger": trigger,
                "tag": tag,
                "seq": self._seq,
                "ring_size": self.ring_size,
                "conversations": len(self._rings),
                "records_seen": self.records_seen,
            }
        ]
        for c_id in self.conversation_ids():
            ring = self._rings[c_id]
            records.append(
                {
                    "kind": "flight-conversation",
                    "c_id": c_id,
                    "retained": len(ring),
                    "seen": self.records_seen,
                }
            )
            records.extend(record.as_dict() for record in ring)
        registry = active_registry()
        metrics = metric_snapshot(registry) if registry is not None else {}
        if metrics:
            records.append({"kind": "flight-metrics", "snapshot": metrics})
        tracker = active_journey()
        if tracker is not None:
            records.append(
                {
                    "kind": "flight-latency",
                    "latency": tracker.latency_summary(),
                    "tracker_records": len(tracker.records),
                    "tracker_dropped": tracker.dropped,
                }
            )
        return records

    def dump(self, trigger: str, tag: str = "") -> Path | None:
        """Write one deterministic JSONL dump; returns its path.

        Filenames are sequence-numbered (``flight-000-<trigger>.jsonl``)
        in write order, which is itself deterministic for a seeded run.
        Returns None when no ``dump_dir`` is configured.
        """
        records = self.snapshot(trigger, tag)
        self._seq += 1
        if self.dump_dir is None:
            return None
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        name = f"flight-{self._seq - 1:03d}-{_slug(trigger)}"
        if tag:
            name += f"-{_slug(tag)}"
        path = self.dump_dir / f"{name}.jsonl"
        text = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        path.write_text(text, encoding="utf-8")
        self.dumps.append(path)
        return path


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

_recorder: FlightRecorder | None = None


def install_flight(
    recorder: FlightRecorder | None = None,
    ring_size: int = 256,
    dump_dir: str | Path | None = None,
) -> FlightRecorder:
    """Make *recorder* (fresh when omitted) the active flight recorder.

    Couples it to the active journey tracker's ``on_record`` seam; a
    journey tracker must be installed first (the recorder records
    provenance, it does not create it).
    """
    global _recorder
    tracker = active_journey()
    if tracker is None:
        raise ObsError(
            "install a journey tracker (repro.obs.install_journey) before "
            "the flight recorder — it records provenance, it does not "
            "create it"
        )
    _recorder = (
        recorder
        if recorder is not None
        else FlightRecorder(ring_size=ring_size, dump_dir=dump_dir)
    )
    tracker.on_record = _recorder.observe
    return _recorder


def uninstall_flight() -> None:
    """Detach the recorder from the tracker and deactivate it."""
    global _recorder
    tracker = active_journey()
    if tracker is not None and _recorder is not None:
        if tracker.on_record == _recorder.observe:
            tracker.on_record = None
    _recorder = None


def active_flight() -> FlightRecorder | None:
    return _recorder


def flight_dump(trigger: str, tag: str = "") -> Path | None:
    """Dump the active flight recorder's black box; no-op uninstalled.

    This is the seam failure sites call — the invariant harness and the
    endpoint's stall eviction — so a run that was not being recorded
    pays a single ``None`` check.
    """
    if _recorder is None:
        return None
    return _recorder.dump(trigger, tag)


@contextmanager
def flight_session(
    recorder: FlightRecorder | None = None,
    ring_size: int = 256,
    dump_dir: str | Path | None = None,
) -> Iterator[FlightRecorder]:
    """Scope a flight-recorder installation to a ``with`` block."""
    previous = _recorder
    installed = install_flight(recorder, ring_size=ring_size, dump_dir=dump_dir)
    try:
        yield installed
    finally:
        uninstall_flight()
        if previous is not None:
            install_flight(previous)
