"""TOOLING: protolint end-to-end throughput over the real tree.

The static-analysis suite runs on every CI push, so its wall-clock is
part of the edit-compile-test loop and deserves the same regression
tracking as the protocol hot paths.  The bench parses a deterministic
sorted prefix of ``src/repro`` (scaled by ``payload_scale``) and runs
every registered pass — per-module and project-wide — returning the
file/pass/finding counts as the pinned figures.

v4 additions: the runner builds the project graph and every AST *once*
per invocation and can fan passes out over worker threads
(``--jobs``).  Wall-clock speedup is printed (it varies by machine);
what the figures pin is the determinism contract — the parallel run's
findings are byte-identical to the serial run's.
"""

from __future__ import annotations

import time
from pathlib import Path

from _common import print_table, register_bench, scaled
from repro.analysis.core import ModuleUnit, run_passes
from repro.analysis.passes import all_passes

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Worker threads for the parallel leg (also CI's ``--jobs`` value).
JOBS = 4


def _units(payload_scale: float) -> list[ModuleUnit]:
    files = sorted(REPO_SRC.rglob("*.py"))
    keep = scaled(len(files), payload_scale, minimum=min(len(files), 8))
    return [ModuleUnit.from_path(path) for path in files[:keep]]


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: lint the (scaled) real tree, serial and parallel."""
    units = _units(payload_scale)
    passes = all_passes()
    serial = run_passes(units, passes)
    parallel = run_passes(_units(payload_scale), all_passes(), jobs=JOBS)
    return {
        "lint.files": len(units),
        "lint.passes": len(passes),
        "lint.findings": len(serial),
        "lint.jobs": JOBS,
        "lint.parallel_identical": int(
            [f.fingerprint for f in serial] == [f.fingerprint for f in parallel]
        ),
    }


def test_full_tree_lint_is_clean(benchmark):
    units = _units(1.0)
    passes = all_passes()
    findings = benchmark(run_passes, units, passes)
    # The shipped tree carries an empty baseline: zero findings.
    assert findings == []


def test_parallel_lint_matches_serial():
    serial = run_passes(_units(1.0), all_passes())
    parallel = run_passes(_units(1.0), all_passes(), jobs=JOBS)
    assert [f.fingerprint for f in serial] == [f.fingerprint for f in parallel]


def main() -> None:
    units = _units(1.0)
    serial_start = time.perf_counter()
    findings = run_passes(units, all_passes())
    serial_s = time.perf_counter() - serial_start
    parallel_units = _units(1.0)
    parallel_start = time.perf_counter()
    run_passes(parallel_units, all_passes(), jobs=JOBS)
    parallel_s = time.perf_counter() - parallel_start
    print_table(
        "protolint over src/repro (serial vs parallel)",
        [
            ["leg", "files", "passes", "findings", "seconds", "speedup"],
            ["jobs=1", len(units), len(all_passes()), len(findings), serial_s, 1.0],
            [
                f"jobs={JOBS}",
                len(parallel_units),
                len(all_passes()),
                len(findings),
                parallel_s,
                serial_s / parallel_s if parallel_s else float("inf"),
            ],
        ],
    )


if __name__ == "__main__":
    main()
