"""End-to-end tests for ``python -m repro.analysis``.

The acceptance contract of ISSUE 1: exit 0 on the real tree with the
shipped (empty) baseline, non-zero on the violation fixtures, valid
JSON under ``--format json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.passes import all_passes
from repro.core.errors import AnalysisError

REPO_ROOT = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"

ALL_PASS_IDS = sorted(pass_.id for pass_ in all_passes())


def run_protolint(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        check=False,
    )


class TestRealTree:
    def test_strict_run_is_clean(self):
        result = run_protolint("--strict")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 error(s), 0 warning(s)" in result.stdout

    def test_json_output_is_valid_and_empty(self):
        result = run_protolint("--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["version"] == 1
        assert payload["findings"] == []
        assert payload["files"] > 40
        assert sorted(payload["passes"]) == ALL_PASS_IDS

    def test_two_runs_produce_byte_identical_json(self):
        # Regression for deterministic output ordering: findings are
        # sorted, pass lists are sorted, and nothing (hash seeds, dict
        # order, filesystem order) may leak into the report.
        first = run_protolint("--format", "json", "src/repro")
        second = run_protolint("--format", "json", "src/repro")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_fixture_runs_are_byte_identical_too(self):
        # Same property when findings are actually present.
        first = run_protolint("--format", "json", str(FIXTURES))
        second = run_protolint("--format", "json", str(FIXTURES))
        assert first.returncode == second.returncode == 1
        assert first.stdout == second.stdout


class TestFixtures:
    def test_fixtures_fail_with_nonzero_exit(self):
        result = run_protolint(str(FIXTURES))
        assert result.returncode == 1
        assert "error" in result.stdout

    def test_fixture_findings_cover_every_pass(self):
        result = run_protolint("--format", "json", str(FIXTURES))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        reported = {finding["pass"] for finding in payload["findings"]}
        assert reported == set(ALL_PASS_IDS)

    def test_select_limits_passes(self):
        result = run_protolint("--format", "json", "--select", "export-drift", str(FIXTURES))
        payload = json.loads(result.stdout)
        assert {finding["pass"] for finding in payload["findings"]} == {"export-drift"}

    def test_disable_removes_pass(self):
        result = run_protolint(
            "--format", "json", "--disable", "export-drift", str(FIXTURES)
        )
        payload = json.loads(result.stdout)
        assert "export-drift" not in {f["pass"] for f in payload["findings"]}

    def test_unknown_pass_id_is_usage_error(self):
        result = run_protolint("--select", "no-such-pass")
        assert result.returncode == 2

    def test_baseline_accepts_known_findings(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write = run_protolint(str(FIXTURES), "--baseline", str(baseline), "--write-baseline")
        assert write.returncode == 0, write.stdout + write.stderr
        rerun = run_protolint(str(FIXTURES), "--baseline", str(baseline))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert "baselined" in rerun.stdout


class TestBaselineFile:
    def test_shipped_baseline_is_empty(self):
        payload = json.loads((REPO_ROOT / "protolint.baseline.json").read_text())
        assert payload == {"version": 1, "findings": []}

    def test_unjustified_entry_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {"version": 1, "findings": [{"fingerprint": "abc123", "justification": ""}]}
            )
        )
        with pytest.raises(AnalysisError, match="justification"):
            load_baseline(path)

    def test_write_then_load_roundtrips(self, tmp_path):
        from repro.analysis.core import Finding

        finding = Finding(pass_id="wire-width", path="x.py", line=3, message="m", symbol="s")
        path = tmp_path / "baseline.json"
        write_baseline(path, [finding])
        assert load_baseline(path) == {finding.fingerprint}


class TestListPasses:
    def test_lists_every_registered_pass(self):
        result = run_protolint("--list-passes")
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == len(ALL_PASS_IDS)
        for pass_id in ALL_PASS_IDS:
            assert pass_id in result.stdout


class TestGithubFormat:
    def test_real_tree_emits_no_annotations(self):
        result = run_protolint("--strict", "--format", "github")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "::error" not in result.stdout
        assert "protolint: 0 finding(s)" in result.stdout

    def test_fixtures_emit_annotations_and_exit_nonzero(self):
        result = run_protolint("--format", "github", str(FIXTURES))
        assert result.returncode == 1
        lines = [ln for ln in result.stdout.splitlines() if ln.startswith("::")]
        assert lines, result.stdout
        # Every annotation carries the file/line/title triple GitHub
        # needs to anchor it on the PR diff.
        for line in lines:
            assert line.startswith(("::error file=", "::warning file="))
            assert ",line=" in line
            assert "title=protolint[" in line

    def test_newlines_in_messages_are_escaped(self):
        from repro.analysis.cli import _render_github
        from repro.analysis.core import Finding

        finding = Finding(
            pass_id="wire-width",
            path="x.py",
            line=3,
            message="a 100% broken\nmulti-line message",
            symbol="s",
        )
        rendered = _render_github([finding])
        assert "a 100%25 broken%0Amulti-line message" in rendered
        assert "\nmulti-line" not in rendered

    def test_select_narrows_the_annotations_to_one_pass(self):
        result = run_protolint(
            "--format", "github", "--select", "ambient-authority", str(FIXTURES)
        )
        assert result.returncode == 1
        lines = [ln for ln in result.stdout.splitlines() if ln.startswith("::")]
        assert len(lines) == 7
        assert all("title=protolint[ambient-authority]::" in ln for ln in lines)


class TestSarifFormat:
    def test_real_tree_emits_valid_empty_sarif(self):
        result = run_protolint("--format", "sarif", "src/repro")
        assert result.returncode == 0, result.stdout + result.stderr
        log = json.loads(result.stdout)
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "protolint"
        assert run["results"] == []
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert rule_ids == ALL_PASS_IDS

    def test_fixture_findings_carry_locations_and_fingerprints(self):
        result = run_protolint("--format", "sarif", str(FIXTURES))
        assert result.returncode == 1
        log = json.loads(result.stdout)
        [run] = log["runs"]
        assert run["results"]
        for item in run["results"]:
            assert item["ruleId"] in ALL_PASS_IDS
            [loc] = item["locations"]
            physical = loc["physicalLocation"]
            assert physical["artifactLocation"]["uri"].endswith(".py")
            assert physical["region"]["startLine"] >= 1
            assert item["partialFingerprints"]["protolint/v1"]

    def test_sarif_output_is_deterministic(self):
        first = run_protolint("--format", "sarif", str(FIXTURES))
        second = run_protolint("--format", "sarif", str(FIXTURES))
        assert first.stdout == second.stdout


class TestJobs:
    def test_parallel_run_is_byte_identical(self):
        serial = run_protolint("--format", "json", str(FIXTURES))
        parallel = run_protolint("--format", "json", "--jobs", "4", str(FIXTURES))
        assert serial.returncode == parallel.returncode == 1
        assert serial.stdout == parallel.stdout

    def test_parallel_real_tree_is_byte_identical(self):
        serial = run_protolint("--format", "json", "src/repro")
        parallel = run_protolint("--format", "json", "--jobs", "4", "src/repro")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_jobs_must_be_positive(self):
        result = run_protolint("--jobs", "0")
        assert result.returncode == 2


class TestStateTableSubcommand:
    def test_check_passes_on_committed_docs(self):
        result = run_protolint("state-table", "--check")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "up to date" in result.stdout

    def test_print_emits_generated_block(self):
        result = run_protolint("state-table")
        assert result.returncode == 0
        assert "<!-- state-table:begin -->" in result.stdout
        assert "stateDiagram-v2" in result.stdout


class TestConfigFile:
    def test_repo_config_covers_benchmarks_and_examples(self):
        config = json.loads((REPO_ROOT / "protolint.config.json").read_text())
        assert "src/repro" in config["paths"]
        assert "benchmarks" in config["paths"]
        assert "examples" in config["paths"]
        assert any(p.startswith("tests") for p in config["exclude"])

    def test_no_args_run_uses_config_and_is_clean(self):
        result = run_protolint("--strict", "--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        # src/repro alone is ~60 files; benchmarks+examples push it up.
        src_only = json.loads(
            run_protolint("--format", "json", "src/repro").stdout
        )
        assert payload["files"] > src_only["files"]

    def test_explicit_paths_ignore_exclusions(self):
        # The fixture tree sits under the excluded tests/ prefix but is
        # analyzed when named explicitly.
        result = run_protolint("--format", "json", str(FIXTURES))
        payload = json.loads(result.stdout)
        assert payload["files"] > 0

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "protolint.config.json"
        bad.write_text(json.dumps({"path": ["src"]}))
        result = run_protolint("--config", str(bad))
        assert result.returncode == 2
        assert "unknown config key" in result.stderr


class TestCheckBaseline:
    def test_fresh_baseline_exits_zero(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write = run_protolint(str(FIXTURES), "--baseline", str(baseline), "--write-baseline")
        assert write.returncode == 0, write.stdout + write.stderr
        check = run_protolint(str(FIXTURES), "--baseline", str(baseline), "--check-baseline")
        assert check.returncode == 0, check.stdout + check.stderr
        assert "baseline ok" in check.stdout

    def test_stale_baseline_exits_nonzero(self, tmp_path):
        # Baseline captured over the fixtures, then checked against the
        # clean real tree: every entry is stale.
        baseline = tmp_path / "baseline.json"
        write = run_protolint(str(FIXTURES), "--baseline", str(baseline), "--write-baseline")
        assert write.returncode == 0, write.stdout + write.stderr
        check = run_protolint("--baseline", str(baseline), "--check-baseline")
        assert check.returncode == 1
        assert "stale baseline entry" in check.stdout

    def test_shipped_empty_baseline_is_trivially_fresh(self):
        check = run_protolint("--check-baseline")
        assert check.returncode == 0, check.stdout + check.stderr
        assert "baseline ok" in check.stdout

    def test_entry_naming_deleted_pass_exits_nonzero(self, tmp_path):
        # The entry's fingerprint still fires (not stale), but its pass
        # was renamed away — the entry is orphaned and must be rejected.
        baseline = tmp_path / "baseline.json"
        write = run_protolint(str(FIXTURES), "--baseline", str(baseline), "--write-baseline")
        assert write.returncode == 0, write.stdout + write.stderr
        payload = json.loads(baseline.read_text())
        payload["findings"][0]["pass"] = "retired-pass"
        baseline.write_text(json.dumps(payload))
        check = run_protolint(str(FIXTURES), "--baseline", str(baseline), "--check-baseline")
        assert check.returncode == 1
        assert "unknown pass 'retired-pass'" in check.stdout
        assert "stale baseline entry" not in check.stdout

    def test_inline_ignore_naming_no_pass_exits_nonzero(self, tmp_path):
        # A suppression must not outlive its pass: neither --strict nor
        # the findings see a dead id, so the hygiene step reports it.
        mod = tmp_path / "repro" / "netsim" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "__all__ = []\n"
            "X = 1  # protolint: ignore[no-such-pass]\n"
            "Y = 2  # protolint: ignore[hot-path-copy, wire-width]\n"
            "Z = 3  # protolint: ignore\n"
        )
        assert run_protolint("--strict", str(mod)).returncode == 0
        check = run_protolint(str(mod), "--check-baseline")
        assert check.returncode == 1
        assert f"{mod.as_posix()}:2:" in check.stdout
        assert "unknown pass 'no-such-pass'" in check.stdout
        assert ":3:" not in check.stdout and ":4:" not in check.stdout
