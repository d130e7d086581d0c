"""repro.perf — benchmark telemetry and perf-regression gates.

The suite's benches each register a deterministic ``run(payload_scale)``
entry point; this package turns them into evidence:

- :mod:`repro.perf.runner` executes every registered bench under an
  observed :func:`repro.obs.session` and writes one schema-versioned
  ``BENCH_<n>.json`` artifact (the bench's deterministic figures, the
  full obs metric snapshot, simulated-time totals).
- :mod:`repro.perf.profile` checks the paper's countable claims as
  machine-verified budgets (immediate processing touches each byte
  once, reassembly at most twice, touch counts are arrival-order
  invariant, ...) and prints one bench's cProfile hotspots.
- :mod:`repro.perf.compare` gates a new artifact against a baseline:
  exact equality on every counter, figure and budget.

Nothing here measures speed — ``bench_e2e/`` does.  CLI: ``python -m
repro.perf run|compare|profile`` (see docs/benchmarking.md).
"""

from __future__ import annotations

from repro.perf.compare import (
    CompareResult,
    Finding,
    compare_artifacts,
    render_comparison,
)
from repro.perf.profile import collect_hotspots, evaluate_budgets
from repro.perf.runner import load_registry, run_bench, run_suite
from repro.perf.schema import (
    SCHEMA_VERSION,
    Artifact,
    BenchRecord,
    BudgetCheck,
    artifact_paths,
    dump_artifact,
    load_artifact,
    next_artifact_path,
)

__all__ = [
    "SCHEMA_VERSION",
    "Artifact",
    "BenchRecord",
    "BudgetCheck",
    "CompareResult",
    "Finding",
    "artifact_paths",
    "collect_hotspots",
    "compare_artifacts",
    "dump_artifact",
    "evaluate_budgets",
    "load_artifact",
    "load_registry",
    "next_artifact_path",
    "render_comparison",
    "run_bench",
    "run_suite",
]
