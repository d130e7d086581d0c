"""``python -m repro.perf`` — run, compare, profile.

Exit codes: 0 success; 1 deterministic drift or a failed budget; 2
usage or schema errors (incomparable artifacts, malformed JSON, unknown
bench).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.errors import PerfError
from repro.perf.compare import compare_artifacts, render_comparison
from repro.perf.profile import collect_hotspots
from repro.perf.runner import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    load_registry,
    repo_root,
    run_suite,
)
from repro.perf.schema import dump_artifact, load_artifact, next_artifact_path

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="benchmark telemetry: run the suite, compare artifacts "
                    "exactly, profile one bench",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run the bench suite and write a BENCH_<n>.json artifact"
    )
    run.add_argument("--quick", action="store_true",
                     help=f"reduced scale ({QUICK_SCALE:g}) for CI and smoke tests")
    run.add_argument("--scale", type=float, default=None,
                     help=f"payload scale factor (default {DEFAULT_SCALE:g})")
    run.add_argument("--only", action="append", default=None, metavar="NAME",
                     help="run only benches whose name contains NAME (repeatable)")
    run.add_argument("--out", type=Path, default=None,
                     help="artifact path (default: next BENCH_<n>.json at repo root)")
    run.add_argument("--bench-dir", type=Path, default=None,
                     help="bench module directory (default: <repo>/benchmarks)")

    compare = commands.add_parser(
        "compare", help="compare a baseline artifact against a new one"
    )
    compare.add_argument("old", type=Path, help="baseline BENCH_<n>.json")
    compare.add_argument("new", type=Path, help="candidate BENCH_<n>.json")

    profile = commands.add_parser(
        "profile", help="print top-N cProfile hotspots for one bench"
    )
    profile.add_argument("bench", help="bench name (registry key)")
    profile.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    profile.add_argument("--top", type=int, default=10)
    profile.add_argument("--bench-dir", type=Path, default=None)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    quick = bool(args.quick)
    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if quick else DEFAULT_SCALE
    )
    artifact = run_suite(
        payload_scale=scale,
        quick=quick,
        only=args.only,
        bench_dir=args.bench_dir,
        progress=lambda message: print(message, file=sys.stderr),
    )
    out = args.out if args.out is not None else next_artifact_path(repo_root())
    dump_artifact(artifact, out)
    failed = artifact.failed_budgets
    print(f"wrote {out}: {len(artifact.benches)} benches, "
          f"{len(artifact.budgets)} budget checks, "
          f"sim time {artifact.total_sim_time_s:.3f}s")
    for budget in failed:
        print(f"BUDGET FAILED {budget.name}: {budget.claim} "
              f"({budget.value} {budget.op} {budget.limit})")
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    old = load_artifact(args.old)
    new = load_artifact(args.new)
    result = compare_artifacts(old, new)
    print(render_comparison(result))
    return 0 if result.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    registry = load_registry(args.bench_dir)
    entry = registry.get(args.bench)
    if entry is None:
        raise PerfError(
            f"unknown bench {args.bench!r} (have: {', '.join(sorted(registry))})"
        )
    hotspots = collect_hotspots(entry.fn, args.scale, args.top)
    print(f"top {len(hotspots)} by cumulative time — {args.bench} "
          f"(scale {args.scale:g})")
    for cumulative_s, calls, function in hotspots:
        print(f"  {cumulative_s * 1e3:9.2f}ms  {calls:>9} calls  {function}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except PerfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
