"""Exact artifact comparison: the deterministic gate.

The comparator reads two artifacts (OLD baseline, NEW candidate) and
compares bench sets, bench figures, obs metric snapshots and budget
values with exact equality via :func:`repro.obs.diff_snapshots`.  ANY
drift fails: the suite is seeded end to end, so a changed counter is a
behavioural change, not noise.

Artifacts are only comparable at the same ``payload_scale``; a mismatch
raises :class:`~repro.core.errors.PerfError` (CLI exit code 2) rather
than reporting meaningless deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import PerfError
from repro.obs.snapshot import diff_snapshots
from repro.perf.schema import Artifact

__all__ = [
    "Finding",
    "CompareResult",
    "compare_artifacts",
    "render_comparison",
]

@dataclass(frozen=True, slots=True)
class Finding:
    """One difference between the artifacts; every finding fails.

    ``kind`` is one of ``bench-removed``, ``bench-added``,
    ``figure-drift``, ``metric-drift``, ``budget-drift``,
    ``budget-failed``.
    """

    kind: str
    bench: str
    detail: str


@dataclass(frozen=True, slots=True)
class CompareResult:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def _compare_deterministic(old: Artifact, new: Artifact) -> list[Finding]:
    findings: list[Finding] = []
    old_names = set(old.bench_names)
    new_names = set(new.bench_names)
    for name in sorted(old_names - new_names):
        findings.append(Finding(
            "bench-removed", name,
            "bench present in baseline but missing from the new artifact",
        ))
    for name in sorted(new_names - old_names):
        findings.append(Finding(
            "bench-added", name,
            "bench missing from the baseline (regenerate the baseline artifact)",
        ))
    for name in sorted(old_names & new_names):
        old_record = old.bench(name)
        new_record = new.bench(name)
        assert old_record is not None and new_record is not None
        for delta in diff_snapshots(old_record.figures, new_record.figures):
            findings.append(Finding(
                "figure-drift", name,
                f"figure {delta.key} {delta.kind}: {delta.old!r} -> {delta.new!r}",
            ))
        for delta in diff_snapshots(old_record.metrics, new_record.metrics):
            findings.append(Finding(
                "metric-drift", name,
                f"counter {delta.key} {delta.kind}: {delta.old!r} -> {delta.new!r}",
            ))
    old_budgets = {budget.name: budget for budget in old.budgets}
    new_budgets = {budget.name: budget for budget in new.budgets}
    for name in sorted(set(old_budgets) | set(new_budgets)):
        old_budget = old_budgets.get(name)
        new_budget = new_budgets.get(name)
        if old_budget is None or new_budget is None:
            findings.append(Finding(
                "budget-drift", name,
                "budget present in only one artifact",
            ))
            continue
        if (old_budget.value, old_budget.limit) != (new_budget.value, new_budget.limit):
            findings.append(Finding(
                "budget-drift", name,
                f"budget {old_budget.value} {old_budget.op} {old_budget.limit} -> "
                f"{new_budget.value} {new_budget.op} {new_budget.limit}",
            ))
        if not new_budget.passed:
            findings.append(Finding(
                "budget-failed", name,
                f"{new_budget.claim}: {new_budget.value} {new_budget.op} "
                f"{new_budget.limit} is false",
            ))
    return findings


def compare_artifacts(old: Artifact, new: Artifact) -> CompareResult:
    """Compare baseline *old* against candidate *new*."""
    if old.payload_scale != new.payload_scale:
        raise PerfError(
            f"artifacts are not comparable: payload_scale "
            f"{old.payload_scale} vs {new.payload_scale}"
        )
    findings = _compare_deterministic(old, new)
    findings.sort(key=lambda f: (f.kind, f.bench))
    return CompareResult(findings=tuple(findings))


def render_comparison(result: CompareResult) -> str:
    """A human-readable verdict block for the CLI."""
    lines: list[str] = []
    if result.ok:
        lines.append("compare: artifacts agree (benches, figures, metrics and "
                     "budgets identical)")
    for finding in result.findings:
        lines.append(f"[FAIL] {finding.kind:16s} {finding.bench}: {finding.detail}")
    lines.append(f"compare: {len(result.findings)} failure(s)")
    return "\n".join(lines)
