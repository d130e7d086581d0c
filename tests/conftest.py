"""Shared fixtures, hypothesis profiles, and the flight-recorder hooks.

Data builders live in :mod:`tests.helpers`; they are re-exported here
so existing ``from tests.conftest import make_chunk`` imports keep
working.
"""

from __future__ import annotations

import os
import random
import re
import shutil
from pathlib import Path

import pytest

from tests.helpers import deterministic_bytes, make_chunk, make_payload

__all__ = ["deterministic_bytes", "make_chunk", "make_payload", "rng"]

_NODE_SLUG = re.compile(r"[^A-Za-z0-9._-]+")


def pytest_configure(config: pytest.Config) -> None:
    # REPRO_FLIGHT_DIR=<dir> flies the whole suite under the provenance
    # tracker + flight recorder; failing tests dump their black box
    # there (CI uploads the directory as an artifact on failure).
    config._repro_flight_dir = os.environ.get("REPRO_FLIGHT_DIR")  # type: ignore[attr-defined]


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item: pytest.Item) -> None:
    """Under ``REPRO_FLIGHT_DIR``, each test flies with a journey tracker
    and a flight recorder of its own, dumping into its own directory:
    suite-wide ones would put every earlier test's conversations into
    each dump (gigabytes of black boxes, a lifecycle walk 200x slower)."""
    flight_dir = getattr(item.config, "_repro_flight_dir", None)
    if flight_dir:
        import repro.obs as obs

        obs.install_journey()
        obs.install_flight(dump_dir=_dump_dir(flight_dir, item))


def _dump_dir(flight_dir: str, item: pytest.Item) -> Path:
    return Path(flight_dir) / _NODE_SLUG.sub("-", item.nodeid)[:120]


def pytest_unconfigure(config: pytest.Config) -> None:
    if getattr(config, "_repro_flight_dir", None):
        import repro.obs as obs

        obs.uninstall_flight()
        obs.uninstall_journey()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(
    item: pytest.Item, call: pytest.CallInfo[None]
):  # noqa: ARG001 - pytest hook signature
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        from repro.obs import flight_dump

        flight_dump("test_failure", item.nodeid)
    # Dumps matter only for a failing test: a passed one's directory goes
    # at teardown (its stall evictions alone can write hundreds of files).
    flight_dir = getattr(item.config, "_repro_flight_dir", None)
    if flight_dir and report.failed:
        item._repro_keep_dumps = True  # type: ignore[attr-defined]
    if flight_dir and report.when == "teardown" and not getattr(item, "_repro_keep_dumps", False):
        shutil.rmtree(_dump_dir(flight_dir, item), ignore_errors=True)

try:
    from hypothesis import settings as _hypothesis_settings

    # "ci" is the pinned profile the property suites run under: fully
    # derandomized (reproducible across machines and runs) with a
    # bounded example count and no flaky wall-clock deadline.
    _hypothesis_settings.register_profile(
        "ci", derandomize=True, max_examples=40, deadline=None
    )
    _hypothesis_settings.register_profile(
        "thorough", max_examples=400, deadline=None
    )
    _hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
