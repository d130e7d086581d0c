"""Round-trip and validation tests for the BENCH_<n>.json schema."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import PerfError
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


def _artifact() -> Artifact:
    return Artifact(
        payload_scale=0.25,
        quick=True,
        benches=(
            BenchRecord(
                name="fig1_multiframing",
                module="bench_fig1_multiframing",
                figures={"framer.chunks": 129, "framer.units": 1024},
                metrics={
                    "netsim.loop.events_processed": 40,
                    "netsim.loop.sim_time_total": 1.5,
                },
            ),
            BenchRecord(
                name="fig5_invariant",
                module="bench_fig5_invariant",
                figures={"trials": 50, "wsc2_stable": 50},
                metrics={"wsc.tpdu_verified": 50},
            ),
        ),
        budgets=(
            BudgetCheck.evaluate(
                "fig5.wsc2_order_invariant", "order invariance", 50.0, "==", 50.0
            ),
        ),
        info={"python": "3.11.7"},
    )


class TestBudgetCheck:
    def test_ops(self):
        assert BudgetCheck.evaluate("a", "", 1.0, "==", 1.0).passed
        assert BudgetCheck.evaluate("b", "", 1.9, "<=", 2.0).passed
        assert not BudgetCheck.evaluate("c", "", 2.1, "<=", 2.0).passed
        assert BudgetCheck.evaluate("d", "", 3.0, ">=", 2.0).passed

    def test_unknown_op_rejected(self):
        with pytest.raises(PerfError):
            BudgetCheck.evaluate("e", "", 1.0, "!=", 2.0)


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        artifact = _artifact()
        again = Artifact.from_dict(artifact.to_dict())
        assert again == artifact

    def test_file_round_trip_through_json(self, tmp_path):
        artifact = _artifact()
        path = tmp_path / "BENCH_0001.json"
        dump_artifact(artifact, path)
        assert load_artifact(path) == artifact
        # The on-disk form is deterministic: sorted keys, stable layout.
        dump_artifact(artifact, tmp_path / "again.json")
        assert path.read_text() == (tmp_path / "again.json").read_text()

    def test_derived_totals(self):
        artifact = _artifact()
        assert artifact.bench("fig5_invariant") is not None
        assert artifact.bench("missing") is None
        assert artifact.total_sim_time_s == pytest.approx(1.5)
        assert artifact.total_events == 40
        assert artifact.failed_budgets == ()


class TestValidation:
    def test_wrong_schema_version_rejected(self):
        raw = _artifact().to_dict()
        raw["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(PerfError, match="schema_version"):
            Artifact.from_dict(raw)

    def test_schema_version_1_is_not_read(self):
        # v1 artifacts carried wall samples, hotspots and repeats; there
        # is no reader for them, and the refusal names the version.
        raw = _artifact().to_dict()
        raw["schema_version"] = 1
        with pytest.raises(PerfError, match="schema_version 1 unsupported"):
            Artifact.from_dict(raw)

    def test_non_scalar_figure_rejected(self):
        raw = _artifact().to_dict()
        benches = raw["benches"]
        assert isinstance(benches, list)
        benches[0]["figures"]["bad"] = [1, 2]
        with pytest.raises(PerfError, match="scalar"):
            Artifact.from_dict(raw)

    def test_duplicate_bench_names_rejected(self):
        raw = _artifact().to_dict()
        benches = raw["benches"]
        assert isinstance(benches, list)
        benches.append(benches[0])
        with pytest.raises(PerfError, match="duplicate"):
            Artifact.from_dict(raw)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        path.write_text("{not json")
        with pytest.raises(PerfError, match="JSON"):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PerfError, match="cannot read"):
            load_artifact(tmp_path / "BENCH_0404.json")


class TestArtifactPaths:
    def test_next_path_counts_up(self, tmp_path):
        assert next_artifact_path(tmp_path).name == "BENCH_0001.json"
        (tmp_path / "BENCH_0001.json").write_text("{}")
        (tmp_path / "BENCH_0007.json").write_text("{}")
        (tmp_path / "BENCH_12.json").write_text("{}")  # wrong width: ignored
        assert artifact_paths(tmp_path) == [
            (1, tmp_path / "BENCH_0001.json"),
            (7, tmp_path / "BENCH_0007.json"),
        ]
        assert next_artifact_path(tmp_path).name == "BENCH_0008.json"

    def test_artifact_json_has_expected_top_level_keys(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        dump_artifact(_artifact(), path)
        raw = json.loads(path.read_text())
        assert set(raw) == {
            "schema_version", "payload_scale", "quick",
            "info", "benches", "budgets",
        }
        # Nothing in a bench record is a timing.
        assert set(raw["benches"][0]) == {
            "name", "module", "sim_time_s", "events", "figures", "metrics",
        }
