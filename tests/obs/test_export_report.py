"""Tests for the exporters and the ``python -m repro.obs report`` CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.export import (
    metric_records,
    render_histogram_buckets,
    render_table,
    write_jsonl,
)
from repro.obs.metrics import Registry
from repro.obs.provenance import JourneyTracker, journal_records
from repro.obs.report import load_records, main, summarize, summarize_journeys


def _populated_registry() -> Registry:
    registry = Registry()
    registry.counter("transport", "retransmissions").inc(7)
    registry.gauge("netsim", "queue").set(3)
    registry.histogram("transport", "dist").observe(12)
    return registry


class TestExport:
    def test_metric_records_sorted_and_self_describing(self):
        records = metric_records(_populated_registry())
        # Sorted by (scope, name): netsim/queue, transport/dist,
        # transport/retransmissions.
        assert [r["kind"] for r in records] == ["gauge", "histogram", "counter"]
        assert records[2] == {
            "kind": "counter",
            "scope": "transport",
            "name": "retransmissions",
            "value": 7,
        }

    def test_trace_records_include_drop_meta(self):
        tracker = JourneyTracker(max_records=1)
        tracker.emit("kept", 1, 0, 4, t=1.0)
        tracker.emit("dropped", 1, 4, 4, t=2.0)
        records = journal_records(tracker)
        assert [r["kind"] for r in records] == ["provenance", "provenance-meta"]
        assert records[-1]["dropped_records"] == 1

    def test_write_jsonl_to_stream_is_deterministic(self):
        buffer_a, buffer_b = io.StringIO(), io.StringIO()
        write_jsonl(buffer_a, registry=_populated_registry())
        write_jsonl(buffer_b, registry=_populated_registry())
        assert buffer_a.getvalue() == buffer_b.getvalue()
        for line in buffer_a.getvalue().splitlines():
            json.loads(line)  # every line is standalone JSON

    def test_write_jsonl_to_path_returns_line_count(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracker = JourneyTracker()
        tracker.emit("formed", 1, 0, 4, t=0.5)
        count = write_jsonl(path, registry=_populated_registry(), journey=tracker)
        assert count == 5  # three metrics, one record, one provenance-meta
        assert len(path.read_text().splitlines()) == 5

    def test_render_table_groups_by_scope(self):
        text = render_table(_populated_registry())
        assert text.index("== netsim ==") < text.index("== transport ==")
        assert "retransmissions" in text
        assert "count=1" in text

    def test_render_histogram_buckets(self):
        assert render_histogram_buckets({"-21": 2, "3": 1}) == "<=0:2 <=2^3:1"


class TestReport:
    def _write_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracker = JourneyTracker()
        tracker.emit("retransmit", 7, 0, 256, t=0.25, gen=1)
        write_jsonl(path, registry=_populated_registry(), journey=tracker)
        return path

    def test_load_records_roundtrip(self, tmp_path):
        path = self._write_trace(tmp_path)
        records = load_records(path)
        assert len(records) == 5
        assert all("kind" in r for r in records)

    def test_load_records_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ValueError):
            load_records(path)

    def test_load_records_rejects_kindless_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no": "kind"}\n')
        with pytest.raises(ValueError):
            load_records(path)

    def test_summarize_scope_filter(self, tmp_path):
        records = load_records(self._write_trace(tmp_path))
        text = summarize(records, scope="transport")
        assert "retransmissions" in text
        assert "netsim" not in text

    def test_summarize_events_and_buckets(self, tmp_path):
        records = load_records(self._write_trace(tmp_path))
        text = summarize(records, show_events=True, show_buckets=True)
        assert "chunk.retransmit: 1" in text
        assert "<=2^4:1" in text

    def test_summarize_empty(self):
        assert summarize([]) == "(no matching records)"

    def test_cli_report(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== transport ==" in out
        assert "retransmissions" in out

    def test_cli_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cli_bad_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main(["report", str(path)]) == 2


class TestDeterministicOrdering:
    def _registry(self) -> Registry:
        registry = Registry()
        # Deliberately created out of order: the report must not depend
        # on creation order.
        for name in ("retransmissions", "chunks", "acks"):
            registry.counter("transport", name).inc(1)
        registry.counter("netsim", "chunks").inc(1)
        return registry

    def test_scopes_sort_before_names(self):
        text = summarize(metric_records(self._registry()))
        assert text.index("== netsim ==") < text.index("== transport ==")
        transport = text[text.index("== transport =="):]
        positions = [
            transport.index(name) for name in ("acks", "chunks", "retransmissions")
        ]
        assert positions == sorted(positions)

    def test_identical_inputs_render_identically(self):
        first = summarize(metric_records(self._registry()))
        second = summarize(metric_records(self._registry()))
        assert first == second


class TestEventFiltering:
    def _trace_path(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracker = JourneyTracker()
        tracker.emit("retransmit", 7, 0, 256, t=0.1, gen=1)
        tracker.emit("retransmit", 8, 0, 256, t=0.2, gen=1)
        tracker.emit("evicted", 7, 0, 0, t=0.3, level="conn", reason="stalled")
        write_jsonl(path, journey=tracker)
        return path

    def test_filter_by_field_value(self, tmp_path):
        records = load_records(self._trace_path(tmp_path))
        text = summarize(records, show_events="c_id=7")
        assert "chunk.retransmit: 1" in text
        assert "conn.evicted: 1" in text

    def test_filter_by_bare_value(self, tmp_path):
        records = load_records(self._trace_path(tmp_path))
        text = summarize(records, show_events="stalled")
        assert "conn.evicted: 1" in text
        assert "retransmit" not in text

    def test_filter_by_name_substring(self, tmp_path):
        records = load_records(self._trace_path(tmp_path))
        text = summarize(records, show_events="retransmit")
        assert "chunk.retransmit: 2" in text
        assert "evicted" not in text

    def test_cli_events_filter(self, tmp_path, capsys):
        path = self._trace_path(tmp_path)
        assert main(["report", str(path), "--events", "c_id=8"]) == 0
        out = capsys.readouterr().out
        assert "chunk.retransmit: 1" in out
        assert "evicted" not in out


class TestJourneyReport:
    def _journal_path(self, tmp_path):
        tracker = JourneyTracker()
        tracker.emit("formed", 7, 0, 256, t=0.0, t_id=3, x_id=9)
        tracker.emit("refused", 7, 0, 256, t=0.2, reason="budget")
        tracker.emit("retransmit", 7, 0, 256, t=0.4, gen=1)
        tracker.emit("placed", 7, 0, 256, t=0.5, gen=1)
        tracker.emit("formed", 8, 0, 128, t=0.6)
        path = tmp_path / "journal.jsonl"
        write_jsonl(path, journey=tracker)
        return path

    def test_summarize_journeys_table(self, tmp_path):
        records = load_records(self._journal_path(tmp_path))
        text = summarize_journeys(records)
        assert "== chunk journeys ==" in text
        assert "[0,+256)" in text
        assert "formed>refused>retransmit>placed" in text
        assert "(2 journey(s))" in text

    def test_summarize_journeys_conn_filter(self, tmp_path):
        records = load_records(self._journal_path(tmp_path))
        text = summarize_journeys(records, conn=8)
        assert "(1 journey(s))" in text
        assert "[0,+256)" not in text

    def test_summarize_journeys_empty(self):
        assert summarize_journeys([]) == "(no provenance records)"

    def test_cli_journeys(self, tmp_path, capsys):
        path = self._journal_path(tmp_path)
        assert main(["report", str(path), "--journeys", "--conn", "7"]) == 0
        out = capsys.readouterr().out
        assert "== chunk journeys ==" in out
        assert "placed" in out

    def test_cli_export_trace_round_trips(self, tmp_path, capsys):
        from repro.obs.perfetto import chunk_timelines

        path = self._journal_path(tmp_path)
        out_path = tmp_path / "trace.json"
        assert main(["export-trace", str(path), str(out_path)]) == 0
        assert "trace event(s)" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        timelines = chunk_timelines(trace)
        assert [stage for _, stage, _ in timelines[(7, 0, 256)]] == [
            "formed", "refused", "retransmit", "placed",
        ]

    def test_cli_export_trace_conn_filter(self, tmp_path):
        from repro.obs.perfetto import chunk_timelines

        path = self._journal_path(tmp_path)
        out_path = tmp_path / "trace.json"
        assert main(
            ["export-trace", str(path), str(out_path), "--conn", "8"]
        ) == 0
        assert set(chunk_timelines(json.loads(out_path.read_text()))) == {
            (8, 0, 128)
        }
