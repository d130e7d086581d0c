"""Chrome/Perfetto trace-event export of chunk journeys.

Renders a :class:`~repro.obs.provenance.JourneyTracker`'s records (or a
journal/flight dump re-parsed from JSONL) in the Trace Event Format
that ``ui.perfetto.dev`` and ``chrome://tracing`` load directly:

- one *process* (pid) per conversation (C.ID), name ``conn <C.ID>``;
- one *thread* (tid) per chunk label, named ``chunk [offset,+length)``,
  plus tid 0 as the conversation's lifecycle lane (establishment,
  verification verdicts, delivery, eviction);
- consecutive stage records become ``X`` (complete) slices — the gap
  between ``link_tx`` and ``link_rx`` is literally the wire time — with
  the final record an instant;
- retransmission generations are joined to their consequences with
  ``s``/``f`` flow arrows, so a refusal → retry → placement chain reads
  as arrows across the timeline.

Timestamps are simulated seconds scaled to microseconds (the format's
unit).  Every slice carries the full label in ``args`` so a parsed
trace reconstructs each chunk's stage sequence exactly
(:func:`chunk_timelines`) — the export is lossless for journeys.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.provenance import StageRecord

__all__ = [
    "journeys_to_trace",
    "write_trace",
    "parse_trace",
    "chunk_timelines",
]

#: One simulated second in trace-event timestamp units (microseconds).
_US = 1e6


def _coerce(records: Iterable[StageRecord | Mapping[str, object]]) -> list[StageRecord]:
    out: list[StageRecord] = []
    for record in records:
        if isinstance(record, StageRecord):
            out.append(record)
        elif isinstance(record, Mapping) and record.get("kind") == "provenance":
            out.append(StageRecord.from_dict(record))
    return out


def journeys_to_trace(
    records: Iterable[StageRecord | Mapping[str, object]],
    conn: int | None = None,
) -> dict[str, object]:
    """Build a Trace Event Format document from provenance records.

    *records* may be :class:`StageRecord` objects (a tracker's
    ``records``) or parsed JSONL dicts (``kind == "provenance"`` lines
    of a journal or flight dump; other kinds are ignored).  *conn*
    restricts the export to one conversation.
    """
    parsed = _coerce(records)
    if conn is not None:
        parsed = [r for r in parsed if r.c_id == conn]

    by_conn: dict[int, list[tuple[int, StageRecord]]] = {}
    for seq, record in enumerate(parsed):
        by_conn.setdefault(record.c_id, []).append((seq, record))

    events: list[dict[str, object]] = []
    for c_id in sorted(by_conn):
        conn_records = by_conn[c_id]
        chunk_keys = sorted(
            {r.key for _, r in conn_records if r.level == "chunk"},
            key=lambda key: (key[1], key[2]),
        )
        tids = {key: tid for tid, key in enumerate(chunk_keys, start=1)}
        events.append(
            {
                "ph": "M", "pid": c_id, "tid": 0, "name": "process_name",
                "args": {"name": f"conn {c_id}"},
            }
        )
        events.append(
            {
                "ph": "M", "pid": c_id, "tid": 0, "name": "process_sort_index",
                "args": {"sort_index": c_id},
            }
        )
        events.append(
            {
                "ph": "M", "pid": c_id, "tid": 0, "name": "thread_name",
                "args": {"name": "lifecycle"},
            }
        )
        for key, tid in tids.items():
            events.append(
                {
                    "ph": "M", "pid": c_id, "tid": tid, "name": "thread_name",
                    "args": {"name": f"chunk [{key[1]},+{key[2]})"},
                }
            )

        # Lifecycle lane: tpdu / frame / conn records as instants.
        for _, record in conn_records:
            if record.level == "chunk":
                continue
            events.append(
                {
                    "ph": "i", "s": "t", "pid": c_id, "tid": 0,
                    "ts": record.t * _US,
                    "name": record.stage,
                    "args": _args(record),
                }
            )

        # Chunk lanes: stage slices plus retransmission flow arrows.
        for key in chunk_keys:
            tid = tids[key]
            timeline = sorted(
                (
                    (seq, r)
                    for seq, r in conn_records
                    if r.level == "chunk" and r.key == key
                ),
                key=lambda pair: (pair[1].t, pair[0]),
            )
            for index, (_, record) in enumerate(timeline):
                ts = record.t * _US
                if index + 1 < len(timeline):
                    duration = timeline[index + 1][1].t * _US - ts
                    events.append(
                        {
                            "ph": "X", "pid": c_id, "tid": tid,
                            "ts": ts, "dur": duration,
                            "name": record.stage,
                            "args": _args(record),
                        }
                    )
                else:
                    events.append(
                        {
                            "ph": "i", "s": "p", "pid": c_id, "tid": tid,
                            "ts": ts,
                            "name": record.stage,
                            "args": _args(record),
                        }
                    )
                if record.stage == "retransmit":
                    flow_id = f"{c_id}:{key[1]}+{key[2]}:g{record.gen}"
                    events.append(
                        {
                            "ph": "s", "pid": c_id, "tid": tid, "ts": ts,
                            "id": flow_id, "name": "retransmission",
                            "cat": "retransmission",
                        }
                    )
                    consequence = next(
                        (
                            later
                            for _, later in timeline[index + 1:]
                            if later.stage != "retransmit"
                        ),
                        None,
                    )
                    if consequence is not None:
                        events.append(
                            {
                                "ph": "f", "bp": "e", "pid": c_id, "tid": tid,
                                "ts": consequence.t * _US,
                                "id": flow_id, "name": "retransmission",
                                "cat": "retransmission",
                            }
                        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _args(record: StageRecord) -> dict[str, object]:
    args: dict[str, object] = {
        "c_id": record.c_id,
        "offset": record.offset,
        "length": record.length,
        "gen": record.gen,
        "level": record.level,
    }
    args.update(record.fields)
    return args


def write_trace(target: str | Path, trace: Mapping[str, object]) -> int:
    """Write a trace document as deterministic JSON; returns the event
    count."""
    Path(target).write_text(
        json.dumps(trace, sort_keys=True) + "\n", encoding="utf-8"
    )
    events = trace.get("traceEvents")
    return len(events) if isinstance(events, list) else 0


def parse_trace(trace: Mapping[str, object]) -> list[dict[str, object]]:
    """The trace's event list, validated to be shaped like exported
    output (raises ValueError otherwise)."""
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("not a trace-event document: no traceEvents list")
    for event in events:
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"malformed trace event: {event!r}")
    return events


def chunk_timelines(
    trace: Mapping[str, object],
) -> dict[tuple[int, int, int], list[tuple[float, str, int]]]:
    """Reconstruct per-chunk stage sequences from an exported trace.

    Returns ``{(c_id, offset, length): [(t_seconds, stage, gen), ...]}``
    in timeline order — the inverse of :func:`journeys_to_trace` for
    chunk-level records, used by the round-trip property suite.
    """
    out: dict[tuple[int, int, int], list[tuple[float, str, int]]] = {}
    for event in parse_trace(trace):
        if event.get("ph") not in ("X", "i"):
            continue
        args = event.get("args")
        if not isinstance(args, dict) or args.get("level") != "chunk":
            continue
        key = (int(args["c_id"]), int(args["offset"]), int(args["length"]))
        ts = float(event["ts"])  # type: ignore[arg-type]
        out.setdefault(key, []).append(
            (ts / _US, str(event["name"]), int(args.get("gen", 0)))
        )
    for timeline in out.values():
        timeline.sort(key=lambda item: item[0])
    return out
