"""Unit tests for the runtime: the catalogue, tallies, install, session."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

import repro.obs.runtime as obs_runtime
from repro.obs import (
    Counter,
    Gauge,
    Registry,
    Tallies,
    Tracer,
    active_registry,
    active_tracer,
    declare,
    install,
    session,
    uninstall,
)


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with nothing installed, and leaves the
    process-wide catalogue as it found it."""
    catalogue = dict(obs_runtime._catalogue)
    uninstall()
    yield
    uninstall()
    obs_runtime._catalogue.clear()
    obs_runtime._catalogue.update(catalogue)


@dataclass
class _Stats:
    sent: int = 0


@dataclass
class _Component:
    frames: int = 0
    stats: _Stats = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.stats = _Stats()


def _tallies(tag: str) -> Tallies:
    return Tallies({
        "frames": ("t", f"{tag}.frames", "frames"),
        "stats.sent": ("t", f"{tag}.sent", "sent"),
    })


def _step(tallies: Tallies, component: _Component, frames: int, sent: int) -> None:
    """An entry point, written the way instrumented code writes one."""
    before = tallies.read(component) if obs_runtime._registry is not None else None
    component.frames += frames
    component.stats.sent += sent
    if before is not None:
        tallies.publish(before, component)


class TestNothingInstalled:
    def test_tallies_publish_nothing_without_registry(self):
        tallies, component = _tallies("quiet"), _Component()
        _step(tallies, component, 3, 1)
        assert component.frames == 3
        assert active_registry() is None
        assert active_tracer() is None
        with session() as (registry, _):
            pass
        # The series exist, and hold nothing from before the session.
        assert registry.get("t", "quiet.frames").value == 0


class TestInstall:
    def test_install_creates_every_declared_series(self):
        key = declare(Gauge, "t", "declared.level", "a level")
        registry, _ = install()
        assert key == ("t", "declared.level")
        gauge = registry.instruments[key]
        assert isinstance(gauge, Gauge) and gauge.help == "a level"

    def test_declaring_under_a_session_creates_the_series(self):
        registry, _ = install()
        tallies, component = _tallies("late"), _Component()
        _step(tallies, component, 2, 5)
        assert registry.get("t", "late.frames").value == 2
        assert registry.get("t", "late.sent").value == 5

    def test_tallies_publish_deltas_not_totals(self):
        tallies, component = _tallies("delta"), _Component()
        _step(tallies, component, 10, 10)  # before any session
        registry, _ = install()
        _step(tallies, component, 1, 0)
        _step(tallies, component, 2, 4)
        assert registry.get("t", "delta.frames").value == 3
        assert registry.get("t", "delta.sent").value == 4

    def test_one_attribute_tallies(self):
        tallies = Tallies({"frames": ("t", "single.frames", "frames")})
        component = _Component()
        registry, _ = install()
        before = tallies.read(component)
        component.frames += 7
        tallies.publish(before, component)
        assert registry.get("t", "single.frames").value == 7

    def test_uninstall_returns_to_null(self):
        tallies, component = _tallies("unbind"), _Component()
        registry, _ = install()
        _step(tallies, component, 1, 0)
        before = tallies.read(component)
        uninstall()
        component.frames += 100
        tallies.publish(before, component)  # uninstalled mid-call: dropped
        _step(tallies, component, 100, 0)
        assert active_registry() is None
        assert registry.get("t", "unbind.frames").value == 1

    def test_declarations_are_deduplicated(self):
        first = declare(Counter, "t", "dedupe.c", "first help")
        assert declare(Counter, "t", "dedupe.c", "second help") == first
        registry, _ = install()
        assert registry.instruments[first].help == "first help"
        with pytest.raises(ValueError):
            declare(Gauge, "t", "dedupe.c")

    def test_same_name_different_scope_is_distinct(self):
        registry, _ = install()
        assert declare(Counter, "a", "dup") != declare(Counter, "b", "dup")
        assert registry.get("a", "dup") is not registry.get("b", "dup")

    def test_clock_feeds_registry_and_tracer(self):
        time = {"now": 1.5}
        registry, trace = install(clock=lambda: time["now"])
        assert registry.now() == 1.5
        trace.event("t", "tick")
        assert trace.events[0].t == 1.5


class TestSession:
    def test_session_restores_null_sink(self):
        tallies, component = _tallies("sess"), _Component()
        with session() as (registry, tracer):
            assert obs_runtime._registry is registry
            assert obs_runtime._tracer is tracer
            _step(tallies, component, 1, 0)
        _step(tallies, component, 50, 0)
        assert obs_runtime._registry is None and obs_runtime._tracer is None
        assert registry.get("t", "sess.frames").value == 1

    def test_nested_sessions_restore_outer(self):
        tallies, component = _tallies("nested"), _Component()
        with session() as (outer, _):
            _step(tallies, component, 1, 0)
            with session() as (inner, _):
                _step(tallies, component, 10, 0)
            assert inner is not outer
            assert active_registry() is outer
            _step(tallies, component, 1, 0)
            assert outer.get("t", "nested.frames").value == 2
            assert inner.get("t", "nested.frames").value == 10

    def test_session_accepts_prebuilt_sinks(self):
        key = declare(Counter, "t", "prebuilt.c")
        registry = Registry()
        trace = Tracer()
        with session(registry=registry, tracer=trace) as (got_registry, got_tracer):
            assert got_registry is registry
            assert got_tracer is trace
            assert key in registry.instruments  # install fills a prebuilt registry too
