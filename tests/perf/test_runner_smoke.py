"""Runner smoke tests against the real bench modules, plus the CLI.

These execute actual ``benchmarks/bench_*.py`` entry points (the
fastest ones) at a small payload scale, so they double as a check that
the registry wiring and the deterministic-repeat guarantee hold on the
real suite, not just on fixtures.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import PerfError
from repro.perf.__main__ import main
from repro.perf.profile import collect_hotspots, measure_touch_budgets
from repro.perf.runner import load_registry, run_suite
from repro.perf.schema import load_artifact


SMOKE_ONLY = ["fig6_xid", "fig7_implicit"]
SMOKE_SCALE = 0.25


@pytest.fixture(scope="module")
def registry():
    return load_registry()


class TestRegistry:
    def test_every_bench_module_registers_an_entry(self, registry):
        # One entry per benchmarks/bench_*.py file, named after it.
        assert len(registry) >= 20
        assert "claim_touches" in registry
        assert all(entry.module == f"bench_{name}"
                   for name, entry in registry.items())

    def test_unknown_only_pattern_is_an_error(self):
        with pytest.raises(PerfError, match="matches no bench"):
            run_suite(only=["no_such_bench"])


class TestRunSuite:
    def test_smoke_run_writes_valid_artifact(self, tmp_path):
        exit_code = main([
            "run", "--quick",
            "--only", SMOKE_ONLY[0], "--only", SMOKE_ONLY[1],
            "--out", str(tmp_path / "BENCH_0001.json"),
        ])
        assert exit_code == 0
        artifact = load_artifact(tmp_path / "BENCH_0001.json")
        assert artifact.quick
        assert len(artifact.benches) >= 2
        assert {"fig6_xid_encoding", "fig7_implicit_id"} <= set(artifact.bench_names)
        for record in artifact.benches:
            assert record.figures  # every bench returns at least one figure
        # The direct touch budgets are present even in filtered runs.
        names = {budget.name for budget in artifact.budgets}
        assert "touch.immediate_per_byte" in names
        assert all(budget.passed for budget in artifact.budgets)

    def test_two_runs_agree_exactly_on_deterministic_sections(self):
        first = run_suite(payload_scale=SMOKE_SCALE, only=SMOKE_ONLY)
        second = run_suite(payload_scale=SMOKE_SCALE, only=SMOKE_ONLY)
        for one, two in zip(first.benches, second.benches):
            assert one.figures == two.figures
            assert one.metrics == two.metrics
        assert [b.to_dict() for b in first.budgets] == [
            b.to_dict() for b in second.budgets
        ]


class TestBudgets:
    def test_direct_touch_budgets_hold(self):
        budgets = {budget.name: budget for budget in measure_touch_budgets()}
        assert budgets["touch.immediate_per_byte"].value == 1.0
        assert budgets["touch.immediate_per_byte"].passed
        assert budgets["touch.reassemble_per_byte"].value <= 2.0
        assert budgets["touch.reassemble_per_byte"].passed
        # In-order and shuffled arrival moved identical byte counts.
        invariant = budgets["touch.order_invariant_bytes"]
        assert invariant.op == "=="
        assert invariant.passed

    def test_touch_budgets_are_deterministic(self):
        first = [budget.to_dict() for budget in measure_touch_budgets()]
        second = [budget.to_dict() for budget in measure_touch_budgets()]
        assert first == second


class TestProfileAndCli:
    def test_hotspots_cover_the_bench_entry(self, registry):
        entry = registry["fig6_xid_encoding"]
        hotspots = collect_hotspots(entry.fn, SMOKE_SCALE, top_n=8)
        assert 0 < len(hotspots) <= 8
        cumulatives = [cumulative_s for cumulative_s, _calls, _function in hotspots]
        assert cumulatives == sorted(cumulatives, reverse=True)
        assert any("bench_fig6_xid_encoding" in function
                   for _cumulative_s, _calls, function in hotspots)

    def test_collect_hotspots_disabled_with_zero_top(self, registry):
        entry = registry["fig6_xid_encoding"]
        assert collect_hotspots(entry.fn, SMOKE_SCALE, top_n=0) == ()

    def test_cli_compare_identical_and_perturbed(self, tmp_path, capsys):
        out = tmp_path / "BENCH_0001.json"
        assert main(["run", "--quick", "--only", SMOKE_ONLY[0],
                     "--out", str(out)]) == 0
        assert main(["compare", str(out), str(out)]) == 0
        # Perturb one deterministic figure: the gate must fail.
        raw = json.loads(out.read_text())
        raw["benches"][0]["figures"]["schedules_stable"] -= 1
        bad = tmp_path / "BENCH_0002.json"
        bad.write_text(json.dumps(raw))
        assert main(["compare", str(out), str(bad)]) == 1
        capsys.readouterr()

    def test_cli_usage_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "BENCH_0404.json"
        assert main(["compare", str(missing), str(missing)]) == 2
        assert main(["profile", "no_such_bench"]) == 2
        capsys.readouterr()
