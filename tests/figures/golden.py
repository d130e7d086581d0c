"""The bench suite as one golden file: every registered bench's figures
and metric snapshot, and the paper's 17 budgets, in ``BENCH_0005.json``.

Each ``benchmarks/bench_*.py`` registers a seeded ``run(payload_scale)``
in ``_common.BENCH_REGISTRY``.  :func:`observe` runs one at
:data:`SCALE` under a fresh :func:`repro.obs.session`, and
:data:`BUDGETS` states the paper's countable claims as ``value <op>
limit`` rows over those figures: immediate processing touches each byte
once, reassembly at most twice (§1, §3.3), WSC-2 is invariant under
fragmentation (Fig. 5), ...  ``test_golden.py`` holds both to the file.

After a change that legitimately moves a figure, regenerate it with::

    PYTHONPATH=src python -m tests.figures.golden

That runs every bench twice and writes nothing if the two runs differ.
"""

from __future__ import annotations

import importlib
import io
import json
import operator
import random
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.fragment import split_to_unit_limit
from repro.obs import Registry, active_journey, install_journey, session, uninstall_journey
from repro.obs.snapshot import Scalar, diff_snapshots, metric_snapshot
from repro.paper.receiver import HostReceiver, ImmediateReceiver, ReassembleReceiver

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "BENCH_0005.json"
SCALE = 0.25
#: The direct receiver measurement, looked up in a :class:`Suite` like a bench.
TOUCH = "touch"

Snapshot = dict[str, Scalar]


def load_registry() -> dict[str, Any]:
    """Import every ``benchmarks/bench_*.py``: the ``BenchEntry`` each registers."""
    bench_dir = REPO / "benchmarks"
    if str(bench_dir) not in sys.path:
        # Bench modules import ``_common`` and each other by plain name.
        sys.path.insert(0, str(bench_dir))
    for path in sorted(bench_dir.glob("bench_*.py")):
        importlib.import_module(path.stem)
    return dict(importlib.import_module("_common").BENCH_REGISTRY)


@contextmanager
def _no_journey() -> Iterator[None]:
    """Suspend the test's journey tracker (``REPRO_FLIGHT_DIR``): kept,
    it would record every bench's chunks, up to its bound, for no
    reader."""
    tracker = active_journey()
    uninstall_journey()
    try:
        yield
    finally:
        if tracker is not None:
            install_journey(tracker)


def observe(fn: Callable[[float], dict[str, Any]]) -> tuple[Snapshot, Snapshot]:
    """Run *fn* at :data:`SCALE` in a fresh observed session, its printout
    discarded: its figures (bools as ints, as JSON reads them back) and
    its metric snapshot."""
    registry = Registry()
    with _no_journey(), session(registry=registry), redirect_stdout(io.StringIO()):
        raw = fn(SCALE)
    figures = {key: int(value) if isinstance(value, bool) else value
               for key, value in sorted(raw.items())}
    return figures, metric_snapshot(registry)


def _drive(receiver_cls: type[HostReceiver], pieces: list[Chunk]) -> tuple[float, Scalar]:
    """Feed *pieces* to a fresh receiver in its own observed session:
    its touches per byte and the bytes it moved."""
    registry = Registry()
    with session(registry=registry):
        receiver = receiver_cls()
        now = 0.0
        for piece in pieces:
            receiver.on_chunk(now, piece)
            now += 1e-6
        receiver.finish(now)
    return receiver.touches_per_byte(), metric_snapshot(registry)["host.touch_bytes_total"]


def measure_touches(_scale: float = SCALE) -> dict[str, Any]:
    """The real host receivers over one fixed fragmented stream (480
    units in 24-unit frames, 64-unit TPDUs, cut to 8 units), in order
    and shuffled."""
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=64)
    rng = random.Random(11)
    chunks = [chunk for frame_id in range(20)
              for chunk in builder.add_frame(rng.randbytes(96), frame_id=frame_id)]
    in_order = [piece for chunk in chunks for piece in split_to_unit_limit(chunk, 8)]
    shuffled = list(in_order)
    random.Random(17).shuffle(shuffled)
    immediate, _ = _drive(ImmediateReceiver, in_order)
    reassemble, in_order_bytes = _drive(ReassembleReceiver, in_order)
    _, shuffled_bytes = _drive(ReassembleReceiver, shuffled)
    return {"immediate_per_byte": immediate, "reassemble_per_byte": reassemble,
            "in_order_bytes": in_order_bytes, "shuffled_bytes": shuffled_bytes}


class Suite(dict[str, tuple[Snapshot, Snapshot]]):
    """Bench name -> ``(figures, metrics)``, each bench run on first lookup;
    :data:`TOUCH` is :func:`measure_touches`."""

    def __init__(self, registry: dict[str, Any]) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, name: str) -> tuple[Snapshot, Snapshot]:
        run = measure_touches if name == TOUCH else self.registry[name].fn
        self[name] = observe(run)
        return self[name]


# ----------------------------------------------------------------------
# The budget table
# ----------------------------------------------------------------------

Operand = Callable[[Suite], float]


def fig(bench: str, key: str) -> Operand:
    """One figure of one bench; a missing bench or key is an error."""
    return lambda suite: float(suite[bench][0][key])


def const(value: float) -> Operand:
    return lambda _suite: value


def _fewest_detected(suite: Suite) -> float:
    figures = suite["table1_corruption"][0]
    return float(min(value for key, value in figures.items() if key.endswith(".detected")))


class Budget(NamedTuple):
    name: str
    claim: str
    value: Operand
    op: str
    limit: Operand


_OPS = {"==": operator.eq, "<=": operator.le}


def _claim_touches(skew: str) -> list[Budget]:
    touches = f"skew_{skew}."
    return [
        Budget(f"claim_touches.immediate_{skew}",
               "immediate processing touches each byte once at any skew",
               fig("claim_touches", touches + "immediate_touches"), "==", const(1.0)),
        Budget(f"claim_touches.reassemble_{skew}",
               "reassembly touches each byte at most twice at any skew",
               fig("claim_touches", touches + "reassemble_touches"), "<=", const(2.0)),
        Budget(f"claim_touches.reorder_{skew}",
               "reordering sits between immediate and reassembly",
               fig("claim_touches", touches + "reorder_touches"), "<=",
               fig("claim_touches", touches + "reassemble_touches")),
    ]


#: The paper's countable claims, in the golden's order.
BUDGETS: tuple[Budget, ...] = (
    Budget("touch.immediate_per_byte",
           "immediate packet processing touches each payload byte once",
           fig(TOUCH, "immediate_per_byte"), "==", const(1.0)),
    Budget("touch.reassemble_per_byte",
           "the buffering receive path touches each payload byte at most twice",
           fig(TOUCH, "reassemble_per_byte"), "<=", const(2.0)),
    Budget("touch.order_invariant_bytes",
           "in-order and shuffled arrival move an identical number of bytes",
           fig(TOUCH, "shuffled_bytes"), "==", fig(TOUCH, "in_order_bytes")),
    *_claim_touches("0us"),
    *_claim_touches("800us"),
    Budget("fig5.wsc2_order_invariant",
           "the WSC-2 value is unchanged by every fragmentation schedule",
           fig("fig5_invariant", "wsc2_stable"), "==", fig("fig5_invariant", "trials")),
    Budget("claim_turner.useless_bytes",
           "Turner-style chunk dropping wastes no more bytes than random drop",
           fig("claim_turner", "turner.useless_bytes"), "<=",
           fig("claim_turner", "random.useless_bytes")),
    Budget("claim_lockup.chunks_corrupted",
           "the chunk path completes the lock-up workload without corruption",
           fig("claim_lockup", "chunks.corrupted"), "==", const(0.0)),
    Budget("table1.all_corruption_detected",
           "every injected fault in every Table-1 field is detected",
           _fewest_detected, "==", fig("table1_corruption", "trials_per_field")),
    Budget("provenance.uninstalled_overhead",
           "with no journey tracker installed the chunk hot path never "
           "enters the provenance seam",
           fig("provenance", "uninstalled_records"), "==", const(0.0)),
    Budget("provenance.placed_exactly_once",
           "every delivered chunk's journey contains exactly one placement",
           fig("provenance", "placed"), "==", fig("provenance", "journeys")),
    Budget("fig4.reassemble_vs_repack",
           "reassembling at the boundary never emits more big-net packets",
           fig("fig4_internetworking", "reassemble.big_net_packets"), "<=",
           fig("fig4_internetworking", "repack.big_net_packets")),
    Budget("fig4.repack_vs_one_per_packet",
           "repacking never emits more big-net packets than one-per-packet",
           fig("fig4_internetworking", "repack.big_net_packets"), "<=",
           fig("fig4_internetworking", "one_per_packet.big_net_packets")),
)


def check(budget: Budget, suite: Suite) -> dict[str, Any]:
    """One budget evaluated over *suite*, as the golden records it."""
    value, limit = budget.value(suite), budget.limit(suite)
    return {"name": budget.name, "claim": budget.claim, "value": value, "op": budget.op,
            "limit": limit, "passed": _OPS[budget.op](value, limit)}


# ----------------------------------------------------------------------
# Comparing with the golden, and writing it
# ----------------------------------------------------------------------

def assert_same_benches(registry: dict[str, Any], golden: dict[str, Any]) -> None:
    """The registry and the golden name the same benches."""
    problems = [f"{name}: registered bench has no golden entry"
                for name in sorted(set(registry) - set(golden))]
    problems += [f"{name}: golden entry has no registered bench"
                 for name in sorted(set(golden) - set(registry))]
    assert not problems, "\n".join(problems)


def assert_equals_golden(name: str, golden: dict[str, Any],
                         figures: Snapshot, metrics: Snapshot) -> None:
    """One line per figure or metric of bench *name* that differs from its
    golden entry: the key, the golden's value and this run's."""
    problems = [f"{name}: {section} {delta.key} {delta.kind}: {delta.old!r} -> {delta.new!r}"
                for section, new in (("figure", figures), ("metric", metrics))
                for delta in diff_snapshots(golden[f"{section}s"], new)]
    assert not problems, "\n".join(problems)


def render(registry: dict[str, Any], suite: Suite) -> str:
    """The golden file's text for *suite*."""
    benches = []
    for name in sorted(registry):
        figures, metrics = suite[name]
        benches.append({
            "name": name,
            "module": registry[name].module,
            "sim_time_s": float(metrics["netsim.loop.sim_time_total"]),
            "events": int(metrics["netsim.loop.events_processed"]),
            "figures": figures,
            "metrics": metrics,
        })
    document = {
        "schema_version": 2,
        "payload_scale": SCALE,
        "quick": True,
        "info": {"python": sys.version.split()[0], "platform": sys.platform},
        "benches": benches,
        "budgets": [check(budget, suite) for budget in BUDGETS],
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> int:
    registry = load_registry()
    first, second = Suite(registry), Suite(registry)
    unstable = [name for name in [*sorted(registry), TOUCH] if first[name] != second[name]]
    if unstable:
        print(f"not written: two runs differ in {', '.join(unstable)}", file=sys.stderr)
        return 1
    GOLDEN.write_text(render(registry, first))
    print(f"wrote {GOLDEN.name}: {len(registry)} benches, {len(BUDGETS)} budgets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
