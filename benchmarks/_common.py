"""Shared helpers for the benchmark/reproduction harness.

Every ``bench_*.py`` module in this directory is both:

- a pytest-benchmark target (``pytest benchmarks/ --benchmark-only``)
  whose assertions pin the *shape* of the paper's claim, and
- a standalone script (``python benchmarks/bench_X.py``) that prints the
  reproduced table/figure next to what the paper reports.

The paper has no absolute performance numbers to match (its evaluation
is the design itself plus qualitative claims), so shapes — who wins, by
what rough factor, where behaviour changes — are the reproduction
target.  EXPERIMENTS.md records the printed outputs.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.obs import Registry, Tracer, active_tracer, session, write_jsonl
from repro.wsc.invariant import encode_tpdu

__all__ = [
    "print_table",
    "observed",
    "make_bytes",
    "make_chunk",
    "build_stream",
    "build_tpdu_with_ed",
    "BenchEntry",
    "BENCH_REGISTRY",
    "register_bench",
    "scaled",
]


def print_table(title: str, rows: Sequence[Sequence[object]]) -> str:
    """Render rows (first row = header) as an aligned text table.

    Prints the table and returns the rendered string so callers can
    capture it.
    """
    lines = [f"\n== {title} =="]
    text = [
        [f"{cell:.3f}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    if text:
        widths = [max(len(r[i]) for r in text) for i in range(len(text[0]))]
        for index, row in enumerate(text):
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
    rendered = "\n".join(lines)
    print(rendered)
    tracer = active_tracer()
    if tracer is not None:
        tracer.event("bench", "table", fields={"title": title, "rows": max(len(rows) - 1, 0)})
    return rendered


@contextmanager
def observed(
    trace_path: str | None = None,
    clock: Callable[[], float] | None = None,
) -> Iterator[tuple[Registry, Tracer]]:
    """Run a bench under an observability session.

    Installs a fresh registry + tracer for the ``with`` block and, when
    *trace_path* is given, writes the collected JSONL trace there on the
    way out (even if the bench raises) — ready for
    ``python -m repro.obs report``.
    """
    with session(clock=clock) as (registry, tracer):
        try:
            yield registry, tracer
        finally:
            if trace_path is not None:
                write_jsonl(trace_path, registry=registry, tracer=tracer)


def make_bytes(n: int, seed: int = 0) -> bytes:
    """*n* pseudo-random payload bytes from a seeded generator.

    Implemented with :meth:`random.Random.randbytes` (one C call)
    instead of the earlier per-byte ``randrange(256)`` loop.  The
    sequences differ for the same seed — randbytes draws 32-bit words —
    so goldens derived from the old generator were regenerated when
    this changed; only shapes, never exact payload bytes, are asserted
    by the bench suite.
    """
    return random.Random(seed).randbytes(n)


def make_chunk(units: int, t_st: bool = False, seed: int = 1) -> Chunk:
    """A single DATA chunk with simple labels (benchmark traffic)."""
    from repro.core.tuples import FramingTuple
    from repro.core.types import ChunkType

    return Chunk(
        type=ChunkType.DATA,
        size=1,
        length=units,
        c=FramingTuple(1, 0),
        t=FramingTuple(10, 0, t_st),
        x=FramingTuple(100, 0),
        payload=make_bytes(units * 4, seed=seed),
    )


def build_stream(
    total_units: int,
    tpdu_units: int = 64,
    frame_units: int = 24,
    connection_id: int = 1,
    seed: int = 0,
) -> list[Chunk]:
    """A realistic chunk stream: frames and TPDUs deliberately unaligned."""
    builder = ChunkStreamBuilder(connection_id=connection_id, tpdu_units=tpdu_units)
    chunks: list[Chunk] = []
    produced = 0
    frame_id = 0
    while produced < total_units:
        units = min(frame_units, total_units - produced)
        chunks += builder.add_frame(
            make_bytes(units * 4, seed=seed * 1000 + frame_id), frame_id=frame_id
        )
        produced += units
        frame_id += 1
    return chunks


def build_tpdu_with_ed(tpdu_units: int = 48, seed: int = 0):
    """One complete TPDU (several frames) plus its ED chunk."""
    chunks = build_stream(
        tpdu_units, tpdu_units=tpdu_units, frame_units=max(tpdu_units // 3, 1),
        seed=seed,
    )
    tpdu0 = [c for c in chunks if c.t.ident == 0]
    _, ed = encode_tpdu(tpdu0)
    return tpdu0, ed


# ----------------------------------------------------------------------
# The bench registry (tests/figures/ holds every entry to BENCH_0005.json)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BenchEntry:
    """One registered bench entry point.

    ``fn(payload_scale)`` executes the module's representative workload
    with pinned seeds and returns a flat dict of deterministic key
    figures; the figures golden (``tests/figures/``) runs it under a
    fresh obs session and requires the figures and the metric snapshot
    to equal its entry in ``BENCH_0005.json``.
    """

    name: str
    module: str
    fn: Callable[[float], dict]


#: Every ``@register_bench``-decorated ``run()`` seen so far, keyed by
#: bench name (the module name minus its ``bench_`` prefix).
BENCH_REGISTRY: dict[str, BenchEntry] = {}


def register_bench(fn: Callable[[float], dict]) -> Callable[[float], dict]:
    """Register a bench module's ``run(payload_scale)`` entry point.

    Figures returned by ``fn`` must be deterministic for a given
    ``payload_scale`` — the figures golden treats any drift in them as
    a regression, exactly like the obs counters.
    """
    module = fn.__module__
    name = module.removeprefix("bench_")
    BENCH_REGISTRY[name] = BenchEntry(name=name, module=module, fn=fn)
    return fn


def scaled(base: int, payload_scale: float, minimum: int = 1) -> int:
    """Scale an integer workload knob by ``payload_scale`` (floor at
    *minimum* so tiny scales still exercise the code path)."""
    return max(minimum, int(base * payload_scale))
