"""The artifact is a pure function of the benches: no bench sees what
ran before it, and nothing in the dump varies from run to run.

Driven through ``run_suite``'s ``bench_dir`` seam with two tiny benches
(and a stand-in ``_common``) written to a temporary directory, so the
real registry is neither needed nor touched.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from repro.perf.profile import measure_touch_budgets
from repro.perf.runner import run_suite
from repro.perf.schema import dump_artifact

_COMMON = '''
from dataclasses import dataclass

BENCH_REGISTRY = {}


@dataclass(frozen=True)
class BenchEntry:
    name: str
    module: str
    fn: object


def register_bench(fn):
    name = fn.__module__.removeprefix("bench_")
    BENCH_REGISTRY[name] = BenchEntry(name, fn.__module__, fn)
    return fn
'''

_BENCH = '''
from _common import register_bench
from repro.netsim.events import EventLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint


@register_bench
def run(payload_scale=1.0):
    loop = EventLoop()
    sender, receiver = ChunkEndpoint(loop), ChunkEndpoint(loop)
    sender.transmit = receiver.receive_packet
    receiver.transmit = sender.receive_packet
    for cid in range(1, {conversations} + 1):
        connection = sender.open_connection(ConnectionConfig(connection_id=cid))
        connection.send_frame(bytes(64), end_of_connection=True)
    loop.run()
    return {{"delivered": sum(
        receiver.connection(cid).payload_bytes_in
        for cid in range(1, {conversations} + 1)
    )}}
'''


def _is_bench_module(name: str) -> bool:
    return name == "_common" or name.startswith("bench_")


@contextmanager
def _tiny_suite(root: Path, first_conversations: int) -> Iterator[Path]:
    """A bench dir holding ``a_first`` (N conversations) and ``b_probe``
    (always 2), importable in isolation from the real ``benchmarks/``."""
    root.mkdir()
    (root / "_common.py").write_text(_COMMON)
    (root / "bench_a_first.py").write_text(
        _BENCH.format(conversations=first_conversations)
    )
    (root / "bench_b_probe.py").write_text(_BENCH.format(conversations=2))
    saved_path = list(sys.path)
    saved_modules = {
        name: sys.modules.pop(name) for name in list(sys.modules)
        if _is_bench_module(name)
    }
    try:
        yield root
    finally:
        for name in [name for name in sys.modules if _is_bench_module(name)]:
            del sys.modules[name]
        sys.modules.update(saved_modules)
        sys.path[:] = saved_path


@pytest.fixture(autouse=True)
def _touch_kinds_named():
    # What is still minted on first use is one ``host.touch.<kind>_bytes``
    # series per touch kind (ROADMAP item 4; bounded by the vocabulary,
    # not by traffic).  The budget pass at the end of ``run_suite`` uses
    # kinds these benches do not, so name them all before the first run.
    measure_touch_budgets()


def test_a_bench_snapshot_does_not_depend_on_the_bench_before_it(tmp_path):
    probes = []
    for conversations in (4, 64):
        with _tiny_suite(tmp_path / f"first_{conversations}", conversations) as root:
            artifact = run_suite(bench_dir=root)
        first, probe = artifact.bench("a_first"), artifact.bench("b_probe")
        assert first is not None and probe is not None
        assert first.figures == {"delivered": 64 * conversations}
        probes.append(probe)
    assert probes[0].metrics == probes[1].metrics
    assert probes[0].to_dict() == probes[1].to_dict()


def test_two_runs_in_one_process_dump_identical_bytes(tmp_path):
    with _tiny_suite(tmp_path / "benches", 4) as root:
        for name in ("one.json", "two.json"):
            dump_artifact(run_suite(bench_dir=root), tmp_path / name)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
