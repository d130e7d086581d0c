"""Comparator tests: the exact, deterministic gate."""

from __future__ import annotations

import pytest

from repro.core.errors import PerfError
from repro.perf.compare import compare_artifacts, render_comparison
from repro.perf.schema import Artifact, BenchRecord, BudgetCheck


def _record(name: str,
            figures: dict | None = None,
            metrics: dict | None = None) -> BenchRecord:
    return BenchRecord(
        name=name,
        module=f"bench_{name}",
        figures=figures if figures is not None else {"value": 1},
        metrics=metrics if metrics is not None else {"host.touch_bytes_total": 100},
    )


def _artifact(benches: tuple[BenchRecord, ...],
              budgets: tuple[BudgetCheck, ...] = (),
              payload_scale: float = 1.0) -> Artifact:
    return Artifact(
        payload_scale=payload_scale,
        quick=False,
        benches=benches,
        budgets=budgets,
    )


BASE = _artifact((_record("alpha"),))


class TestDeterministicGate:
    def test_identical_artifacts_pass(self):
        result = compare_artifacts(BASE, BASE)
        assert result.ok
        assert result.findings == ()

    def test_figure_drift_fails(self):
        drifted = _artifact((_record("alpha", figures={"value": 2}),))
        result = compare_artifacts(BASE, drifted)
        assert not result.ok
        assert [f.kind for f in result.findings] == ["figure-drift"]
        assert "value" in result.findings[0].detail

    def test_metric_drift_fails_even_when_wall_unchecked(self):
        drifted = _artifact((_record("alpha",
                                     metrics={"host.touch_bytes_total": 101}),))
        result = compare_artifacts(BASE, drifted)
        assert not result.ok
        assert [f.kind for f in result.findings] == ["metric-drift"]

    def test_added_and_removed_counters_are_drift(self):
        drifted = _artifact((_record(
            "alpha",
            metrics={"host.touch_bytes_total": 100, "host.deliveries": 4},
        ),))
        result = compare_artifacts(BASE, drifted)
        assert [f.kind for f in result.findings] == ["metric-drift"]
        assert "added" in result.findings[0].detail

    def test_bench_set_changes_fail(self):
        grown = _artifact((_record("alpha"), _record("beta")))
        result = compare_artifacts(BASE, grown)
        assert [f.kind for f in result.findings] == ["bench-added"]
        result = compare_artifacts(grown, BASE)
        assert [f.kind for f in result.findings] == ["bench-removed"]

    def test_failed_budget_fails(self):
        budget = BudgetCheck.evaluate(
            "touch.immediate_per_byte", "touch once", 1.5, "==", 1.0
        )
        broken = _artifact(BASE.benches, budgets=(budget,))
        baseline = _artifact(
            BASE.benches,
            budgets=(BudgetCheck.evaluate(
                "touch.immediate_per_byte", "touch once", 1.0, "==", 1.0
            ),),
        )
        result = compare_artifacts(baseline, broken)
        kinds = sorted(f.kind for f in result.findings)
        assert kinds == ["budget-drift", "budget-failed"]


class TestComparability:
    def test_payload_scale_mismatch_raises(self):
        other = _artifact(BASE.benches, payload_scale=0.25)
        with pytest.raises(PerfError, match="payload_scale"):
            compare_artifacts(BASE, other)


class TestRendering:
    def test_render_mentions_verdict_and_counts(self):
        text = render_comparison(compare_artifacts(BASE, BASE))
        assert "artifacts agree" in text
        assert "0 failure(s)" in text

    def test_render_marks_failures(self):
        drifted = _artifact((_record("alpha", figures={"value": 2}),))
        text = render_comparison(compare_artifacts(BASE, drifted))
        assert "[FAIL]" in text
        assert "figure-drift" in text
