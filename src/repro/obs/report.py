"""``python -m repro.obs`` — trace-file tooling (report, export-trace).

``report`` reads a file produced by :func:`repro.obs.export.write_jsonl`
(for example by ``python examples/reliable_transfer.py --trace
run.jsonl``) or a flight-recorder dump, and prints the per-layer
counters, gauges, histograms, journey-record counts by ``level.stage``
(``--events``), and — with ``--journeys`` — the per-chunk journey
table.  ``export-trace`` renders the same files as a Chrome/Perfetto
trace-event JSON for ``ui.perfetto.dev`` (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.obs.export import render_histogram_buckets

__all__ = ["load_records", "summarize", "summarize_journeys", "main"]


def load_records(path: str | Path) -> list[dict[str, object]]:
    """Parse a JSON-lines trace file; raises ValueError on garbage."""
    records: list[dict[str, object]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError(f"{path}:{lineno}: record has no 'kind'")
        records.append(record)
    return records


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _event_matches(record: dict[str, object], needle: str) -> bool:
    """True when a journey record matches an ``--events FILTER`` string.

    Matches the *stage* (substring), or any field — the label's
    ``c_id`` / ``offset`` / ``length``, ``gen``, ``level`` and the
    record's own fields alike — as ``key=value`` or bare ``value``: so
    ``--events c_id=7`` selects one conversation's records whatever
    their stage.
    """
    if needle in str(record.get("stage", "")):
        return True
    facts = {key: record.get(key) for key in ("c_id", "offset", "length", "gen", "level")}
    fields = record.get("fields")
    if isinstance(fields, dict):
        facts.update(fields)
    return any(
        f"{key}={value}" == needle or str(value) == needle
        for key, value in facts.items()
    )


def summarize(
    records: list[dict[str, object]],
    scope: str | None = None,
    show_events: bool | str = False,
    show_buckets: bool = False,
) -> str:
    """Render the per-scope summary of a record list.

    *show_events* may be True (count every journey record by
    ``level.stage``) or a filter string (count only matching records).
    """
    metrics: dict[str, list[dict[str, object]]] = {}
    event_counts: dict[tuple[str, str], int] = {}
    dropped = 0
    for record in records:
        kind = record.get("kind")
        if kind in ("counter", "gauge", "histogram"):
            record_scope = str(record.get("scope", "?"))
            if scope is not None and record_scope != scope:
                continue
            metrics.setdefault(record_scope, []).append(record)
        elif kind == "provenance":
            if isinstance(show_events, str) and not _event_matches(
                record, show_events
            ):
                continue
            key = (str(record.get("level", "chunk")), str(record.get("stage", "?")))
            event_counts[key] = event_counts.get(key, 0) + 1
        elif kind == "provenance-meta":
            value = record.get("dropped_records", 0)
            dropped += int(value) if isinstance(value, (int, float)) else 0

    lines: list[str] = []
    for record_scope in sorted(metrics):
        lines.append(f"== {record_scope} ==")
        rows = sorted(metrics[record_scope], key=lambda r: str(r.get("name", "")))
        name_width = max(len(str(r.get("name", ""))) for r in rows)
        kind_width = max(len(str(r.get("kind", ""))) for r in rows)
        for row in rows:
            kind = str(row["kind"])
            name = str(row.get("name", ""))
            if kind == "counter":
                detail = _fmt(row.get("value", 0))
            elif kind == "gauge":
                detail = (
                    f"{_fmt(row.get('value', 0))}  "
                    f"(high-water {_fmt(row.get('high_water', 0))})"
                )
            else:
                detail = (
                    f"count={_fmt(row.get('count', 0))}  "
                    f"mean={_fmt(row.get('mean', 0.0))}  "
                    f"max={_fmt(row.get('max'))}"
                )
                buckets = row.get("buckets")
                if show_buckets and isinstance(buckets, dict) and buckets:
                    detail += f"  [{render_histogram_buckets(buckets)}]"
            lines.append(
                f"  {kind.ljust(kind_width)}  {name.ljust(name_width)}  {detail}"
            )

    if show_events and event_counts:
        lines.append("== events ==")
        for (level, stage), count in sorted(event_counts.items()):
            lines.append(f"  {level}.{stage}: {count}")
    if dropped:
        lines.append(f"(journey dropped {dropped} record(s) past the buffer bound)")
    if not lines:
        lines.append("(no matching records)")
    return "\n".join(lines)


def summarize_journeys(
    records: list[dict[str, object]], conn: int | None = None
) -> str:
    """Render the per-chunk journey table from provenance records."""
    from repro.obs.provenance import JourneyTracker

    tracker = JourneyTracker()
    tracker.replay(records)
    journeys = tracker.journeys(c_id=conn)
    if not journeys:
        return "(no provenance records)"

    header = ("conn", "chunk", "stages", "gens", "t_first", "t_last", "outcome")
    rows: list[tuple[str, ...]] = [header]
    for journey in journeys:
        stages = ">".join(journey.stages)
        if len(stages) > 60:
            stages = stages[:57] + "..."
        times = [record.t for record in journey.records]
        rows.append(
            (
                str(journey.c_id),
                f"[{journey.offset},+{journey.length})",
                stages,
                ",".join(str(g) for g in journey.generations),
                f"{min(times):.6g}",
                f"{max(times):.6g}",
                journey.outcome,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["== chunk journeys =="]
    for index, row in enumerate(rows):
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if index == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    lines.append(f"({len(journeys)} journey(s))")
    return "\n".join(lines)


def _print(text: str) -> None:
    try:
        print(text)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.  Point
        # stdout at devnull so the interpreter's exit-time flush of the
        # dead pipe cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability trace tooling for the repro simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="summarize a JSON-lines trace file")
    report.add_argument("trace", help="path to a .jsonl trace file")
    report.add_argument("--scope", help="only this layer (netsim/transport/host/wsc)")
    report.add_argument(
        "--events",
        nargs="?",
        const=True,
        default=False,
        metavar="FILTER",
        help="also count journey records by level.stage; with FILTER, only "
        "records whose stage or key=value field matches (e.g. --events c_id=7)",
    )
    report.add_argument(
        "--buckets", action="store_true", help="show histogram bucket detail"
    )
    report.add_argument(
        "--journeys",
        action="store_true",
        help="render the per-chunk journey table from provenance records",
    )
    report.add_argument(
        "--conn", type=int, help="restrict --journeys to one conversation"
    )
    export = sub.add_parser(
        "export-trace",
        help="render provenance records as Chrome/Perfetto trace-event JSON",
    )
    export.add_argument("trace", help="path to a journal/flight .jsonl file")
    export.add_argument("out", help="output trace JSON path")
    export.add_argument(
        "--conn", type=int, help="export only this conversation's journeys"
    )
    args = parser.parse_args(argv)

    try:
        records = load_records(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "export-trace":
        from repro.obs.perfetto import journeys_to_trace, write_trace

        trace = journeys_to_trace(records, conn=args.conn)
        count = write_trace(args.out, trace)
        print(f"wrote {count} trace event(s) to {args.out}")
        return 0

    if args.journeys:
        _print(summarize_journeys(records, conn=args.conn))
        return 0
    _print(summarize(records, args.scope, args.events, args.buckets))
    return 0
