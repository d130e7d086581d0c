"""Unobserved, the program makes no call into ``repro.obs`` at all.

Components keep their counts as their own integers and read the
installed sink — one module attribute — before publishing anything, so
with nothing installed no function under ``repro/obs/`` is ever entered.
This guard counts, with ``sys.setprofile``, every call from outside
``repro/obs/`` into it over one pass of each end-to-end benchmark
workload (the benchmark's own ``bench_e2e.workloads``, at its smoke
scale, after one warm-up pass so lazy imports are not counted):

- with nothing installed, there are none;
- with only a journey tracker installed, they all land in
  ``obs/provenance.py`` — the tracker itself, reached through the one
  read of ``provenance._tracker`` — and never in the metric registry.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

import repro
from bench_e2e import workloads
from repro.obs import active_journey, journey_session

SEED = 1993
SMOKE_SCALE = 1 / 16

_OBS = os.path.join(os.path.dirname(repro.__file__), "obs") + os.sep
_PROVENANCE = os.path.join(_OBS, "provenance.py")


def _obs_calls(name: str) -> tuple[Counter, int]:
    """(file, function) → calls into ``repro/obs/`` from outside it, over
    one smoke-scale pass of workload *name*; and the journey records the
    pass made."""
    workload = workloads.WORKLOADS[name]
    workload.run(workload.build(SEED, SMOKE_SCALE))  # warm-up
    inputs = workload.build(SEED, SMOKE_SCALE)
    tracker = active_journey()
    records = 0 if tracker is None else len(tracker.records)
    calls: Counter = Counter()

    def count(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(_OBS):
            return
        caller = frame.f_back
        if caller is None or not caller.f_code.co_filename.startswith(_OBS):
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        state = workload.run(inputs)
    finally:
        sys.setprofile(None)
    if tracker is not None:
        records = len(tracker.records) - records
    result = workload.check(inputs, state)
    assert not result.failed, result.problems
    return calls, records


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_an_unobserved_pass_makes_no_call_into_obs(name, bare_obs):
    calls, _ = _obs_calls(name)
    assert not calls, calls.most_common(5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_journey_tracker_is_the_only_obs_code_it_reaches(name, bare_obs):
    with journey_session():
        calls, records = _obs_calls(name)
    assert {file for file, _ in calls} <= {_PROVENANCE}, calls.most_common(5)
    assert bool(calls) == bool(records)
