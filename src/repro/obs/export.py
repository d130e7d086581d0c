"""Exporters: JSON lines for machines, aligned tables for humans.

The JSON-lines format is one self-describing record per line —
``{"kind": "counter"|"gauge"|"histogram"|"event"|"span", ...}``
— so a trace file concatenates, greps, and streams trivially.  Keys
are sorted and nothing nondeterministic (timestamps, pids, hostnames)
is emitted, so a seeded run produces a byte-identical trace file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.obs.metrics import Registry, bucket_label
from repro.obs.tracing import Tracer

__all__ = [
    "metric_records",
    "trace_records",
    "write_jsonl",
    "render_table",
    "render_histogram_buckets",
]


def metric_records(registry: Registry) -> list[dict[str, object]]:
    """Every instrument as a JSON-able record, sorted by (scope, name)."""
    return [sample.as_dict() for sample in registry.samples()]


def trace_records(tracer: Tracer) -> list[dict[str, object]]:
    """Every trace event/span as a JSON-able record, in time order."""
    records = [record.as_dict() for record in tracer.records()]
    if tracer.dropped:
        records.append({"kind": "meta", "dropped_records": tracer.dropped})
    return records


def write_jsonl(
    target: str | Path | IO[str],
    registry: Registry | None = None,
    tracer: Tracer | None = None,
) -> int:
    """Write metrics then trace records to *target*; returns line count."""
    records: list[dict[str, object]] = []
    if registry is not None:
        records.extend(metric_records(registry))
    if tracer is not None:
        records.extend(trace_records(tracer))
    lines = [json.dumps(record, sort_keys=True) for record in records]
    text = "".join(line + "\n" for line in lines)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
    return len(lines)


def _histogram_cells(data: dict[str, object]) -> str:
    count = data.get("count", 0)
    mean = data.get("mean", 0.0)
    maximum = data.get("max")
    parts = [f"count={count}", f"mean={_num(mean)}"]
    if maximum is not None:
        parts.append(f"max={_num(maximum)}")
    return "  ".join(parts)


def _num(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_table(registry: Registry, tracer: Tracer | None = None) -> str:
    """A per-scope, human-readable summary of a registry (and trace)."""
    lines: list[str] = []
    by_scope: dict[str, list[tuple[str, str, str]]] = {}
    for sample in registry.samples():
        if sample.kind == "counter":
            detail = _num(sample.data["value"])
        elif sample.kind == "gauge":
            detail = (
                f"{_num(sample.data['value'])}  "
                f"(high-water {_num(sample.data['high_water'])})"
            )
        else:
            detail = _histogram_cells(sample.data)
        by_scope.setdefault(sample.scope, []).append((sample.kind, sample.name, detail))

    for scope in sorted(by_scope):
        lines.append(f"== {scope} ==")
        rows = by_scope[scope]
        kind_width = max(len(kind) for kind, _, _ in rows)
        name_width = max(len(name) for _, name, _ in rows)
        for kind, name, detail in rows:
            lines.append(f"  {kind.ljust(kind_width)}  {name.ljust(name_width)}  {detail}")

    if tracer is not None and (tracer.events or tracer.spans or tracer.dropped):
        lines.append("== trace ==")
        counts: dict[tuple[str, str], int] = {}
        for event in tracer.events:
            counts[(event.scope, event.name)] = counts.get((event.scope, event.name), 0) + 1
        for span in tracer.spans:
            counts[(span.scope, span.name)] = counts.get((span.scope, span.name), 0) + 1
        for (scope, name), count in sorted(counts.items()):
            lines.append(f"  {scope}.{name}: {count} record(s)")
        if tracer.dropped:
            lines.append(f"  (dropped {tracer.dropped} record(s) past the buffer bound)")
    return "\n".join(lines)


def render_histogram_buckets(buckets: dict[str, int]) -> str:
    """Render sparse exponent-keyed buckets as ``<=2^e:count`` pairs."""
    parts = [
        f"{bucket_label(int(exponent))}:{count}"
        for exponent, count in sorted(buckets.items(), key=lambda kv: int(kv[0]))
    ]
    return " ".join(parts)
