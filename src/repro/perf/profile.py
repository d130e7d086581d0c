"""Profiling one bench and the paper's machine-checked obs budgets.

Two jobs:

1. :func:`collect_hotspots` wraps one bench entry point in
   :mod:`cProfile` and extracts the top-N functions by cumulative time —
   printed by ``python -m repro.perf profile``, never stored or gated.

2. The budget table.  The paper's performance argument is made of
   countable claims — "reassembly requires two accesses to each piece of
   data", "immediate packet processing minimizes data movement", the
   WSC-2 value is order-invariant — and :mod:`repro.obs` counts exactly
   those quantities.  :func:`evaluate_budgets` turns each claim into a
   :class:`~repro.perf.schema.BudgetCheck` ceiling: some measured
   directly against the host receivers under an observed session
   (:func:`measure_touch_budgets`), the rest read off the deterministic
   figures the bench suite just produced.  Budgets are deterministic,
   so the comparator gates on their values exactly.
"""

from __future__ import annotations

import cProfile
import pstats
import random
from pathlib import Path
from typing import Callable, Sequence, cast

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.fragment import split_to_unit_limit
from repro.host.receiver import HostReceiver, ImmediateReceiver, ReassembleReceiver
from repro.obs import Registry, session
from repro.obs.snapshot import Scalar, metric_snapshot
from repro.perf.schema import BenchRecord, BudgetCheck

__all__ = [
    "collect_hotspots",
    "measure_touch_budgets",
    "evaluate_budgets",
]


def collect_hotspots(
    fn: Callable[[float], dict[str, object]],
    payload_scale: float,
    top_n: int = 10,
) -> tuple[tuple[float, int, str], ...]:
    """Run *fn* once under cProfile; the top *top_n* functions as
    ``(cumulative_s, calls, "file.py:lineno(name)")`` rows."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn(payload_scale)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    raw = cast(
        "dict[tuple[str, int, str], tuple[int, int, float, float, object]]",
        stats.stats,  # type: ignore[attr-defined]
    )
    rows: list[tuple[float, int, str]] = []
    for (filename, lineno, name), (_cc, ncalls, _tt, cumulative, _callers) in raw.items():
        where = f"{Path(filename).name}:{lineno}" if lineno else filename
        rows.append((float(cumulative), int(ncalls), f"{where}({name})"))
    rows.sort(key=lambda row: (-row[0], row[2]))
    return tuple(rows[:top_n])


# ----------------------------------------------------------------------
# Direct touch-budget measurement (Sections 1 and 3.3)
# ----------------------------------------------------------------------

_STREAM_UNITS = 480
_UNIT_BYTES = 4


def _budget_stream() -> list[Chunk]:
    """A fixed fragmented chunk stream for the receive-path budgets."""
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=64)
    rng = random.Random(11)
    chunks: list[Chunk] = []
    frame_units = 24
    for frame_id in range(_STREAM_UNITS // frame_units):
        data = rng.randbytes(frame_units * _UNIT_BYTES)
        chunks += builder.add_frame(data, frame_id=frame_id)
    return [piece for chunk in chunks for piece in split_to_unit_limit(chunk, 8)]


def _drive(receiver_cls: type[HostReceiver],
           pieces: Sequence[Chunk]) -> tuple[float, dict[str, Scalar]]:
    """Feed *pieces* to a fresh receiver under its own observed session."""
    registry = Registry()
    with session(registry=registry):
        receiver = receiver_cls()
        now = 0.0
        for piece in pieces:
            receiver.on_chunk(now, piece)
            now += 1e-6
        receiver.finish(now)
    return receiver.touches_per_byte(), metric_snapshot(registry)


def measure_touch_budgets() -> list[BudgetCheck]:
    """The data-touch ceilings, measured against the real host receivers.

    Asserted as machine-checked budgets:

    - immediate processing touches each payload byte exactly once;
    - the buffering (reassembly) receive path touches each payload byte
      at most twice;
    - in-order and shuffled arrival produce *identical* touch counts on
      the reassembly path (``host.touch_bytes_total`` compared exactly).
    """
    in_order = _budget_stream()
    shuffled = list(in_order)
    random.Random(17).shuffle(shuffled)

    immediate_touches, _ = _drive(ImmediateReceiver, in_order)
    reassemble_touches, ordered_metrics = _drive(ReassembleReceiver, in_order)
    _, shuffled_metrics = _drive(ReassembleReceiver, shuffled)

    ordered_bytes = ordered_metrics.get("host.touch_bytes_total", 0)
    shuffled_bytes = shuffled_metrics.get("host.touch_bytes_total", 0)
    ordered_total = float(ordered_bytes) if isinstance(ordered_bytes, (int, float)) else 0.0
    shuffled_total = float(shuffled_bytes) if isinstance(shuffled_bytes, (int, float)) else 0.0

    return [
        BudgetCheck.evaluate(
            "touch.immediate_per_byte",
            "immediate packet processing touches each payload byte once",
            immediate_touches, "==", 1.0,
        ),
        BudgetCheck.evaluate(
            "touch.reassemble_per_byte",
            "the buffering receive path touches each payload byte at most twice",
            reassemble_touches, "<=", 2.0,
        ),
        BudgetCheck.evaluate(
            "touch.order_invariant_bytes",
            "in-order and shuffled arrival move an identical number of bytes",
            shuffled_total, "==", ordered_total,
        ),
    ]


# ----------------------------------------------------------------------
# Figure-derived budgets
# ----------------------------------------------------------------------

def _figure(record: BenchRecord | None, key: str) -> float | None:
    if record is None:
        return None
    value = record.figures.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def _figure_budgets(records: Sequence[BenchRecord]) -> list[BudgetCheck]:
    by_name = {record.name: record for record in records}
    checks: list[BudgetCheck] = []

    touches = by_name.get("claim_touches")
    for skew in ("0us", "800us"):
        immediate = _figure(touches, f"skew_{skew}.immediate_touches")
        reassemble = _figure(touches, f"skew_{skew}.reassemble_touches")
        reorder = _figure(touches, f"skew_{skew}.reorder_touches")
        if immediate is not None:
            checks.append(BudgetCheck.evaluate(
                f"claim_touches.immediate_{skew}",
                "immediate processing touches each byte once at any skew",
                immediate, "==", 1.0,
            ))
        if reassemble is not None:
            checks.append(BudgetCheck.evaluate(
                f"claim_touches.reassemble_{skew}",
                "reassembly touches each byte at most twice at any skew",
                reassemble, "<=", 2.0,
            ))
        if reorder is not None and reassemble is not None:
            checks.append(BudgetCheck.evaluate(
                f"claim_touches.reorder_{skew}",
                "reordering sits between immediate and reassembly",
                reorder, "<=", reassemble,
            ))

    fig5 = by_name.get("fig5_invariant")
    stable = _figure(fig5, "wsc2_stable")
    trials = _figure(fig5, "trials")
    if stable is not None and trials is not None:
        checks.append(BudgetCheck.evaluate(
            "fig5.wsc2_order_invariant",
            "the WSC-2 value is unchanged by every fragmentation schedule",
            stable, "==", trials,
        ))

    turner = by_name.get("claim_turner")
    turner_useless = _figure(turner, "turner.useless_bytes")
    random_useless = _figure(turner, "random.useless_bytes")
    if turner_useless is not None and random_useless is not None:
        checks.append(BudgetCheck.evaluate(
            "claim_turner.useless_bytes",
            "Turner-style chunk dropping wastes no more bytes than random drop",
            turner_useless, "<=", random_useless,
        ))

    lockup = by_name.get("claim_lockup")
    corrupted = _figure(lockup, "chunks.corrupted")
    if corrupted is not None:
        checks.append(BudgetCheck.evaluate(
            "claim_lockup.chunks_corrupted",
            "the chunk path completes the lock-up workload without corruption",
            corrupted, "==", 0.0,
        ))

    table1 = by_name.get("table1_corruption")
    if table1 is not None:
        per_field = _figure(table1, "trials_per_field")
        detected = [
            float(value)
            for key, value in table1.figures.items()
            if key.endswith(".detected") and isinstance(value, (int, float))
        ]
        if per_field is not None and detected:
            checks.append(BudgetCheck.evaluate(
                "table1.all_corruption_detected",
                "every injected fault in every Table-1 field is detected",
                min(detected), "==", per_field,
            ))

    provenance = by_name.get("provenance")
    uninstalled = _figure(provenance, "uninstalled_records")
    if uninstalled is not None:
        checks.append(BudgetCheck.evaluate(
            "provenance.uninstalled_overhead",
            "with no journey tracker installed the chunk hot path never "
            "enters the provenance seam",
            uninstalled, "==", 0.0,
        ))
    placed = _figure(provenance, "placed")
    journeys = _figure(provenance, "journeys")
    if placed is not None and journeys is not None:
        checks.append(BudgetCheck.evaluate(
            "provenance.placed_exactly_once",
            "every delivered chunk's journey contains exactly one placement",
            placed, "==", journeys,
        ))

    fig4 = by_name.get("fig4_internetworking")
    reassembled = _figure(fig4, "reassemble.big_net_packets")
    repacked = _figure(fig4, "repack.big_net_packets")
    one_per = _figure(fig4, "one_per_packet.big_net_packets")
    if reassembled is not None and repacked is not None:
        checks.append(BudgetCheck.evaluate(
            "fig4.reassemble_vs_repack",
            "reassembling at the boundary never emits more big-net packets",
            reassembled, "<=", repacked,
        ))
    if repacked is not None and one_per is not None:
        checks.append(BudgetCheck.evaluate(
            "fig4.repack_vs_one_per_packet",
            "repacking never emits more big-net packets than one-per-packet",
            repacked, "<=", one_per,
        ))

    return checks


def evaluate_budgets(records: Sequence[BenchRecord]) -> tuple[BudgetCheck, ...]:
    """The full budget table: direct measurements + figure-derived checks.

    Figure-derived checks are only emitted for benches present in
    *records*, so filtered runs (``--only``) still produce a coherent
    table.
    """
    checks = measure_touch_budgets()
    checks.extend(_figure_budgets(records))
    return tuple(checks)
