"""Fixtures and hooks shared by ``tests/`` and ``benchmarks/``.

- The runtime guards of :mod:`tests.guards` are installed before the
  first ``repro`` import, so they cover ``tests/``, ``benchmarks/`` and
  the examples ``tests/integration/test_examples_run.py`` runs in-process.
- Nothing flies by default.  ``REPRO_FLIGHT_DIR=<dir>`` gives each test
  a journey tracker and a flight recorder of its own, dumping into its
  own subdirectory; a failing test dumps its black box there, and a
  passing test's directory is removed.  Every run is seeded, so
  re-running a failed test with the variable set (``pytest --lf``)
  rebuilds the black box its first run would have written.
- Every test must leave no tracker, recorder or metric registry
  installed; the test that does fails at teardown.
"""

from tests import guards

guards.install()

import os  # noqa: E402 - after the guards, which must precede any repro import
import random  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
from collections.abc import Generator, Iterator  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from repro.obs import flight, provenance, runtime  # noqa: E402

FLIGHT_DIR = os.environ.get("REPRO_FLIGHT_DIR")
_NODE_SLUG = re.compile(r"[^A-Za-z0-9._-]+")

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


@pytest.fixture
def bare_obs() -> Iterator[None]:
    """No journey tracker or flight recorder during the test, for tests
    that measure the unobserved path; whatever ``REPRO_FLIGHT_DIR``
    installed is lifted (recorder first) and restored (tracker first)."""
    tracker, recorder = provenance.active_journey(), flight.active_flight()
    flight.uninstall_flight()
    provenance.uninstall_journey()
    yield
    flight.uninstall_flight()
    provenance.uninstall_journey()
    if tracker is not None:
        provenance.install_journey(tracker)
    if recorder is not None:
        flight.install_flight(recorder)


def _dump_dir(item: pytest.Item) -> Path:
    return Path(str(FLIGHT_DIR)) / _NODE_SLUG.sub("-", item.nodeid)[:120]


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item: pytest.Item) -> None:
    if FLIGHT_DIR:
        provenance.install_journey()
        flight.install_flight(dump_dir=_dump_dir(item))


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item: pytest.Item) -> None:
    """After the test's own fixtures are torn down: lift the test's pair
    under ``REPRO_FLIGHT_DIR``, then fail the test that leaked one."""
    if FLIGHT_DIR:
        flight.uninstall_flight()
        provenance.uninstall_journey()
    if not (provenance._tracker is flight._recorder is runtime._registry is None):
        leaked = {"journey tracker": provenance._tracker, "flight recorder": flight._recorder,
                  "metric registry": runtime._registry}
        flight.uninstall_flight()  # so that the next test starts clean
        provenance.uninstall_journey()
        runtime.uninstall()
        names = ", ".join(name for name, value in leaked.items() if value is not None)
        pytest.fail(f"{item.nodeid} left installed: {names}")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(
    item: pytest.Item, call: pytest.CallInfo[None]
) -> Generator[None, pytest.TestReport, pytest.TestReport]:  # noqa: ARG001 - hook signature
    report = yield
    if FLIGHT_DIR:
        # Dumps matter only for a failing test: a passed one's directory
        # goes at teardown (its stall evictions alone can write hundreds).
        if report.failed:
            item._repro_keep_dumps = True  # type: ignore[attr-defined]
            if report.when == "call":
                flight.flight_dump("test_failure", item.nodeid)
        elif report.when == "teardown" and not getattr(item, "_repro_keep_dumps", False):
            shutil.rmtree(_dump_dir(item), ignore_errors=True)
    return report
