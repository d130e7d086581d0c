"""Discover and execute the bench suite into one ``BENCH_<n>.json``.

Every ``benchmarks/bench_*.py`` registers a ``run(payload_scale)``
entry point in ``_common.BENCH_REGISTRY`` at import time.  The runner
imports them all, executes each entry twice — each run under a fresh
:func:`repro.obs.session` so the metric snapshot starts from zero — and
collects:

- the deterministic figure dict the bench returned,
- the full :func:`repro.obs.metric_snapshot`, which includes the
  event-loop's simulated-time and event totals.

Figures and metrics must agree *exactly* between the two runs; any
drift means a bench leaked nondeterminism and the run fails loudly
rather than committing an uncomparable artifact.
"""

from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Protocol, Sequence

from repro.core.errors import PerfError
from repro.obs import Registry, session
from repro.obs.snapshot import Scalar, metric_snapshot
from repro.perf.profile import evaluate_budgets
from repro.perf.schema import Artifact, BenchRecord

__all__ = [
    "BenchEntryLike",
    "DEFAULT_SCALE",
    "QUICK_SCALE",
    "repo_root",
    "default_bench_dir",
    "load_registry",
    "run_bench",
    "run_suite",
]

DEFAULT_SCALE = 1.0
QUICK_SCALE = 0.25


class BenchEntryLike(Protocol):
    """What the runner needs from a ``_common.BenchEntry``."""

    @property
    def name(self) -> str: ...

    @property
    def module(self) -> str: ...

    @property
    def fn(self) -> Callable[[float], dict[str, object]]: ...


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


def default_bench_dir() -> Path:
    return repo_root() / "benchmarks"


def load_registry(bench_dir: Path | None = None) -> dict[str, BenchEntryLike]:
    """Import every ``bench_*.py`` and return the populated registry."""
    directory = bench_dir if bench_dir is not None else default_bench_dir()
    if not directory.is_dir():
        raise PerfError(f"bench directory not found: {directory}")
    modules = sorted(path.stem for path in directory.glob("bench_*.py"))
    if not modules:
        raise PerfError(f"no bench_*.py modules under {directory}")
    path_entry = str(directory)
    if path_entry not in sys.path:
        # Bench modules import each other by plain name (``from
        # bench_claim_latency import ...``), so the directory itself
        # must be importable.
        sys.path.insert(0, path_entry)
    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise PerfError(f"cannot import bench module {module}: {exc}") from exc
    common = importlib.import_module("_common")
    registry: dict[str, BenchEntryLike] = dict(common.BENCH_REGISTRY)
    if not registry:
        raise PerfError("bench registry is empty: no @register_bench entry points")
    return registry


def _validate_figures(name: str, raw: object) -> dict[str, Scalar]:
    if not isinstance(raw, dict):
        raise PerfError(
            f"bench {name!r} returned {type(raw).__name__}, expected a figure dict"
        )
    figures: dict[str, Scalar] = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise PerfError(f"bench {name!r} figure key {key!r} is not a string")
        if isinstance(value, bool):
            # Normalize: booleans serialize as true/false and read back
            # as bool, which would compare unequal to a re-run's int.
            figures[key] = int(value)
        elif value is None or isinstance(value, (int, float, str)):
            figures[key] = value
        else:
            raise PerfError(
                f"bench {name!r} figure {key!r} is {type(value).__name__}, "
                "expected a JSON scalar"
            )
    return dict(sorted(figures.items()))


def _observed_run(
    entry: BenchEntryLike, payload_scale: float
) -> tuple[dict[str, Scalar], dict[str, Scalar]]:
    registry = Registry()
    with session(registry=registry), redirect_stdout(io.StringIO()):
        raw = entry.fn(payload_scale)
    return _validate_figures(entry.name, raw), metric_snapshot(registry)


def run_bench(entry: BenchEntryLike, payload_scale: float) -> BenchRecord:
    """Execute one bench entry twice under observed sessions.

    The second run is a fault detector, not a sample: it must reproduce
    the first run's figures and metric snapshot exactly.
    """
    figures, metrics = _observed_run(entry, payload_scale)
    again_figures, again_metrics = _observed_run(entry, payload_scale)
    if again_figures != figures:
        raise PerfError(
            f"bench {entry.name!r} figures drifted between two runs: "
            "nondeterministic bench"
        )
    if again_metrics != metrics:
        raise PerfError(
            f"bench {entry.name!r} obs metrics drifted between two runs: "
            "nondeterministic bench"
        )
    return BenchRecord(
        name=entry.name,
        module=entry.module,
        figures=figures,
        metrics=metrics,
    )


def _select(registry: dict[str, BenchEntryLike],
            only: Sequence[str] | None) -> list[BenchEntryLike]:
    if not only:
        return [registry[name] for name in sorted(registry)]
    selected: list[BenchEntryLike] = []
    for pattern in only:
        matches = sorted(name for name in registry if pattern in name)
        if not matches:
            raise PerfError(
                f"--only {pattern!r} matches no bench "
                f"(have: {', '.join(sorted(registry))})"
            )
        selected.extend(registry[name] for name in matches)
    unique: dict[str, BenchEntryLike] = {entry.name: entry for entry in selected}
    return [unique[name] for name in sorted(unique)]


def run_suite(
    payload_scale: float = DEFAULT_SCALE,
    quick: bool = False,
    only: Sequence[str] | None = None,
    bench_dir: Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> Artifact:
    """Run the (selected) suite and assemble the artifact."""
    registry = load_registry(bench_dir)
    entries = _select(registry, only)
    records: list[BenchRecord] = []
    for entry in entries:
        if progress is not None:
            progress(f"bench {entry.name} ...")
        records.append(run_bench(entry, payload_scale))
    budgets = evaluate_budgets(records)
    info = {
        "python": sys.version.split()[0],
        "platform": sys.platform,
    }
    return Artifact(
        payload_scale=payload_scale,
        quick=quick,
        benches=tuple(records),
        budgets=budgets,
        info=info,
    )
