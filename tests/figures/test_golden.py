"""Every registered bench's figures and metric snapshot, and every paper
budget, equal the committed golden (``BENCH_0005.json``) exactly.

A difference is a behavioural change, not noise: the suite is seeded end
to end.  When one is meant, regenerate the golden (``golden.py``'s
docstring) and itemise the diff in the change's notes.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.netsim.events import EventLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint

from tests.figures import golden as golden_module
from tests.figures.golden import (
    BUDGETS,
    GOLDEN,
    REPO,
    TOUCH,
    Budget,
    Suite,
    assert_equals_golden,
    assert_same_benches,
    check,
    load_registry,
    observe,
    render,
)

REGISTRY = load_registry()
GOLDEN_DOCUMENT = json.loads(GOLDEN.read_text())
GOLDEN_BENCHES = {entry["name"]: entry for entry in GOLDEN_DOCUMENT["benches"]}
GOLDEN_BUDGETS = {row["name"]: row for row in GOLDEN_DOCUMENT["budgets"]}


@pytest.fixture(scope="module")
def suite() -> Suite:
    """Each bench runs once per test session, for its golden test and
    for every budget that reads it."""
    return Suite(REGISTRY)


def test_registry_and_golden_name_the_same_benches():
    assert_same_benches(REGISTRY, GOLDEN_BENCHES)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_bench_equals_golden(name, suite):
    assert_equals_golden(name, GOLDEN_BENCHES[name], *suite[name])


def test_budget_table_is_the_goldens():
    assert [budget.name for budget in BUDGETS] == list(GOLDEN_BUDGETS)
    assert len(BUDGETS) == 17


def _assert_budget(budget: Budget, suite: Suite) -> None:
    row = check(budget, suite)
    assert row["passed"], f"{budget.claim}: {row['value']} {budget.op} {row['limit']} is false"
    assert row == GOLDEN_BUDGETS[budget.name]


@pytest.mark.parametrize("budget", BUDGETS, ids=[budget.name for budget in BUDGETS])
def test_budget(budget, suite):
    _assert_budget(budget, suite)


def test_touch_bytes_are_counted(suite):
    # ``touch.order_invariant_bytes`` is ``shuffled == in_order``: it
    # would also hold if neither run counted a byte.
    assert suite[TOUCH][0]["in_order_bytes"] > 0


def _conversations(count: int):
    """A bench opening *count* one-frame conversations over a loopback pair."""
    def bench(_scale: float) -> dict[str, int]:
        loop = EventLoop()
        sender, receiver = ChunkEndpoint(loop), ChunkEndpoint(loop)
        sender.transmit = receiver.receive_packet
        receiver.transmit = sender.receive_packet
        for cid in range(1, count + 1):
            connection = sender.open_connection(ConnectionConfig(connection_id=cid))
            connection.send_frame(bytes(64), end_of_connection=True)
        loop.run()
        return {"delivered": sum(receiver.connection(cid).payload_bytes_in
                                 for cid in range(1, count + 1))}
    return bench


# ----------------------------------------------------------------------
# A drift fails, and says where
# ----------------------------------------------------------------------

def test_a_drifted_figure_names_bench_key_and_both_values(suite):
    stable = suite["fig5_invariant"][0]["wsc2_stable"]
    golden = copy.deepcopy(GOLDEN_BENCHES["fig5_invariant"])
    golden["figures"]["wsc2_stable"] = stable + 1
    with pytest.raises(AssertionError) as failure:
        assert_equals_golden("fig5_invariant", golden, *suite["fig5_invariant"])
    assert (f"fig5_invariant: figure wsc2_stable changed: {stable + 1!r} -> {stable!r}"
            in str(failure.value))


def test_a_drifted_bench_names_the_metric_it_moved():
    entry = REGISTRY["fig6_xid_encoding"]

    def drifted(scale: float) -> dict[str, object]:
        figures = entry.fn(scale)
        _conversations(1)(scale)  # work the golden did not see
        return figures

    key = "netsim.loop.events_processed"
    old = GOLDEN_BENCHES["fig6_xid_encoding"]["metrics"][key]
    figures, metrics = observe(drifted)
    with pytest.raises(AssertionError) as failure:
        assert_equals_golden("fig6_xid_encoding", GOLDEN_BENCHES["fig6_xid_encoding"],
                             figures, metrics)
    assert (f"fig6_xid_encoding: metric {key} changed: {old!r} -> {metrics[key]!r}"
            in str(failure.value))


def test_a_metric_added_or_removed_is_named(suite):
    figures, metrics = suite["fig6_xid_encoding"]
    golden = copy.deepcopy(GOLDEN_BENCHES["fig6_xid_encoding"])
    added = "netsim.loop.events_processed"
    value = golden["metrics"].pop(added)
    golden["metrics"]["host.retired_series"] = 4
    with pytest.raises(AssertionError) as failure:
        assert_equals_golden("fig6_xid_encoding", golden, figures, metrics)
    assert str(failure.value).splitlines()[:2] == [
        "fig6_xid_encoding: metric host.retired_series removed: 4 -> None",
        f"fig6_xid_encoding: metric {added} added: None -> {value!r}",
    ]


def test_every_drifted_key_is_named_on_its_own_line(suite):
    golden = copy.deepcopy(GOLDEN_BENCHES["fig5_invariant"])
    golden["figures"]["trials"] += 1
    golden["figures"]["wsc2_stable"] += 2
    with pytest.raises(AssertionError) as failure:
        assert_equals_golden("fig5_invariant", golden, *suite["fig5_invariant"])
    lines = str(failure.value).splitlines()
    assert lines[0].startswith("fig5_invariant: figure trials changed: ")
    assert lines[1].startswith("fig5_invariant: figure wsc2_stable changed: ")


def test_a_broken_budget_fails_naming_its_claim(suite):
    immediate, reassemble = BUDGETS[0], BUDGETS[1]
    broken = Suite(REGISTRY)
    broken[TOUCH] = ({**suite[TOUCH][0], "immediate_per_byte": 1.5,
                      "reassemble_per_byte": 1.5}, suite[TOUCH][1])
    with pytest.raises(AssertionError, match=re.escape(f"{immediate.claim}: 1.5 == 1.0 is false")):
        _assert_budget(immediate, broken)
    # 1.5 <= 2.0 holds, but it is not the golden's 2.0: that is drift too.
    assert check(reassemble, broken)["passed"]
    with pytest.raises(AssertionError):
        _assert_budget(reassemble, broken)


def test_a_registered_bench_without_a_golden_entry_is_named():
    with pytest.raises(AssertionError, match="^new_bench: registered bench has no golden entry$"):
        assert_same_benches({**REGISTRY, "new_bench": None}, GOLDEN_BENCHES)


def test_a_golden_entry_without_a_bench_is_named():
    registry = {name: entry for name, entry in REGISTRY.items() if name != "claim_pmtu"}
    with pytest.raises(AssertionError, match="^claim_pmtu: golden entry has no registered bench$"):
        assert_same_benches(registry, GOLDEN_BENCHES)


# ----------------------------------------------------------------------
# A bench's snapshot does not depend on what ran before it
# ----------------------------------------------------------------------

def test_a_bench_snapshot_does_not_depend_on_the_bench_before_it():
    probes = []
    for count in (4, 64):
        assert observe(_conversations(count))[0] == {"delivered": 64 * count}
        probes.append(observe(_conversations(2)))
    assert probes[0] == probes[1]


@pytest.mark.parametrize("name", ["fig6_xid_encoding", "fig7_implicit_id"])
def test_a_second_run_in_one_process_is_identical(name, suite):
    assert observe(REGISTRY[name].fn) == suite[name]


@pytest.mark.parametrize("name", ["claim_interrupts", "table1_corruption"])
def test_a_bench_run_alone_equals_its_golden_entry(name):
    # A fresh interpreter: no series may reach a session from code that
    # an earlier bench ran.
    code = ("import json; from tests.figures.golden import load_registry, observe; "
            f"print(json.dumps(observe(load_registry()[{name!r}].fn)))")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    alone = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True, text=True,
                           capture_output=True, env={**os.environ, "PYTHONPATH": path})
    assert_equals_golden(name, GOLDEN_BENCHES[name], *json.loads(alone.stdout))


# ----------------------------------------------------------------------
# Regeneration
# ----------------------------------------------------------------------

def _without_info(document: dict[str, object]) -> dict[str, object]:
    # ``info`` records the interpreter that wrote the file.
    return {key: value for key, value in document.items() if key != "info"}


def test_the_rendered_golden_equals_the_committed_file(suite):
    assert _without_info(json.loads(render(REGISTRY, suite))) == _without_info(GOLDEN_DOCUMENT)


def test_regeneration_writes_nothing_when_two_runs_differ(tmp_path, monkeypatch, capsys):
    runs = iter(range(2))
    flaky = SimpleNamespace(fn=lambda _scale: {"run": next(runs)})
    monkeypatch.setattr(golden_module, "load_registry", lambda: {"flaky": flaky})
    monkeypatch.setattr(golden_module, "GOLDEN", tmp_path / "BENCH_0005.json")
    assert golden_module.main() == 1
    assert not (tmp_path / "BENCH_0005.json").exists()
    assert "not written: two runs differ in flaky" in capsys.readouterr().err
