"""The instrumentation runtime: module-level handles and the null sink.

Instrumented modules declare handles once, at import time::

    from repro.obs import counter, gauge, tracer

    _OBS_FRAMES = counter("netsim", "link.frames_in", "frames offered")
    _OBS_TRACE = tracer("netsim")

and call ``_OBS_FRAMES.inc()`` on the hot path.  When no registry is
installed — the default — every handle forwards to a shared null
implementation whose methods do nothing: one attribute load and one
no-op call, cheap enough to leave in the hottest loops.  Tracer
handles are additionally *falsy* while disabled so per-event field
dicts can be skipped entirely (``if _OBS_TRACE: _OBS_TRACE.event(...)``).

:func:`install` binds every existing handle (and all future ones) to a
live :class:`~repro.obs.metrics.Registry` and
:class:`~repro.obs.tracing.Tracer`; :func:`uninstall` rebinds them to
the null sink.  :func:`session` scopes an installation to a ``with``
block and restores whatever was active before, so nested observed runs
(a bench inside a test) behave.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.metrics import Counter, Gauge, Histogram, Registry, Timer
from repro.obs.tracing import Tracer

__all__ = [
    "CounterHandle",
    "GaugeHandle",
    "HistogramHandle",
    "TimerHandle",
    "TracerHandle",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "tracer",
    "install",
    "uninstall",
    "active_registry",
    "active_tracer",
    "session",
]


# ----------------------------------------------------------------------
# Null implementations (the default sink)
# ----------------------------------------------------------------------

class _NullInstrument:
    """Does nothing, cheaply, for every instrument method."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        return None

    def dec(self, amount: float = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


class _NullTracer:
    __slots__ = ()

    def event(
        self,
        scope: str,
        name: str,
        t: float | None = None,
        fields: dict[str, object] | None = None,
    ) -> None:
        return None

    @contextmanager
    def span(
        self,
        scope: str,
        name: str,
        fields: dict[str, object] | None = None,
    ) -> Iterator[None]:
        yield


_NULL = _NullInstrument()
_NULL_TRACER = _NullTracer()


@contextmanager
def _null_measure() -> Iterator[None]:
    yield


# ----------------------------------------------------------------------
# Handles
# ----------------------------------------------------------------------

class CounterHandle:
    """A lazily bound counter; forwards to the active registry or null."""

    __slots__ = ("scope", "name", "help", "_impl")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self._impl: Counter | _NullInstrument = _NULL

    def inc(self, amount: float = 1) -> None:
        self._impl.inc(amount)

    def _bind(self, registry: Registry | None) -> None:
        self._impl = (
            _NULL if registry is None
            else registry.counter(self.scope, self.name, self.help)
        )


class GaugeHandle:
    __slots__ = ("scope", "name", "help", "_impl")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self._impl: Gauge | _NullInstrument = _NULL

    def set(self, value: float) -> None:
        self._impl.set(value)

    def inc(self, amount: float = 1) -> None:
        self._impl.inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._impl.dec(amount)

    def _bind(self, registry: Registry | None) -> None:
        self._impl = (
            _NULL if registry is None
            else registry.gauge(self.scope, self.name, self.help)
        )


class HistogramHandle:
    __slots__ = ("scope", "name", "help", "_impl")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self._impl: Histogram | _NullInstrument = _NULL

    def observe(self, value: float) -> None:
        self._impl.observe(value)

    def _bind(self, registry: Registry | None) -> None:
        self._impl = (
            _NULL if registry is None
            else registry.histogram(self.scope, self.name, self.help)
        )


class TimerHandle:
    __slots__ = ("scope", "name", "help", "_impl")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self._impl: Timer | None = None

    def observe(self, duration: float) -> None:
        if self._impl is not None:
            self._impl.observe(duration)

    def measure(self) -> "object":
        """Context manager timing the body in simulated seconds."""
        if self._impl is None:
            return _null_measure()
        return self._impl.measure()

    def _bind(self, registry: Registry | None) -> None:
        self._impl = (
            None if registry is None
            else registry.timer(self.scope, self.name, self.help)
        )


class TracerHandle:
    """A lazily bound, scope-pinned tracer.

    Falsy while no tracer is installed, so hot paths can skip building
    the per-event field dict: ``if _OBS_TRACE: _OBS_TRACE.event(...)``.
    """

    __slots__ = ("scope", "_impl")

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self._impl: Tracer | _NullTracer = _NULL_TRACER

    def __bool__(self) -> bool:
        return self._impl is not _NULL_TRACER

    def event(self, name: str, t: float | None = None, **fields: object) -> None:
        self._impl.event(self.scope, name, t, fields)

    def span(self, name: str, **fields: object) -> "object":
        return self._impl.span(self.scope, name, fields)

    def _bind(self, tracer_obj: Tracer | None) -> None:
        self._impl = _NULL_TRACER if tracer_obj is None else tracer_obj


_AnyHandle = CounterHandle | GaugeHandle | HistogramHandle | TimerHandle

# ----------------------------------------------------------------------
# Global state
# ----------------------------------------------------------------------

_registry: Registry | None = None
_tracer: Tracer | None = None
_metric_handles: dict[tuple[str, str, str], _AnyHandle] = {}
_tracer_handles: dict[str, TracerHandle] = {}


def _handle(
    kind: type[CounterHandle] | type[GaugeHandle] | type[HistogramHandle] | type[TimerHandle],
    scope: str,
    name: str,
    help: str,
) -> _AnyHandle:
    key = (kind.__name__, scope, name)
    existing = _metric_handles.get(key)
    if existing is not None:
        return existing
    handle = kind(scope, name, help)
    handle._bind(_registry)
    _metric_handles[key] = handle
    return handle


def counter(scope: str, name: str, help: str = "") -> CounterHandle:
    """Declare (or fetch) the counter handle for ``scope``/``name``."""
    handle = _handle(CounterHandle, scope, name, help)
    assert isinstance(handle, CounterHandle)
    return handle


def gauge(scope: str, name: str, help: str = "") -> GaugeHandle:
    """Declare (or fetch) the gauge handle for ``scope``/``name``."""
    handle = _handle(GaugeHandle, scope, name, help)
    assert isinstance(handle, GaugeHandle)
    return handle


def histogram(scope: str, name: str, help: str = "") -> HistogramHandle:
    """Declare (or fetch) the histogram handle for ``scope``/``name``."""
    handle = _handle(HistogramHandle, scope, name, help)
    assert isinstance(handle, HistogramHandle)
    return handle


def timer(scope: str, name: str, help: str = "") -> TimerHandle:
    """Declare (or fetch) the timer handle for ``scope``/``name``."""
    handle = _handle(TimerHandle, scope, name, help)
    assert isinstance(handle, TimerHandle)
    return handle


def tracer(scope: str) -> TracerHandle:
    """Declare (or fetch) the tracer handle for layer ``scope``."""
    existing = _tracer_handles.get(scope)
    if existing is not None:
        return existing
    handle = TracerHandle(scope)
    handle._bind(_tracer)
    _tracer_handles[scope] = handle
    return handle


# ----------------------------------------------------------------------
# Install / uninstall / session
# ----------------------------------------------------------------------

def install(
    registry: Registry | None = None,
    tracer: Tracer | None = None,
    clock: Callable[[], float] | None = None,
) -> tuple[Registry, Tracer]:
    """Make a registry + tracer the active sink for every handle.

    Creates fresh ones when not supplied.  ``clock`` (typically
    ``lambda: loop.now``) feeds both the tracer's timestamps and any
    timers; it must be simulated time, never the wall clock.
    """
    global _registry, _tracer
    _registry = registry if registry is not None else Registry()
    _tracer = tracer if tracer is not None else Tracer()
    if clock is not None:
        _registry.clock = clock
        _tracer.clock = clock
    for handle in _metric_handles.values():
        handle._bind(_registry)
    for tracer_handle in _tracer_handles.values():
        tracer_handle._bind(_tracer)
    return _registry, _tracer


def uninstall() -> None:
    """Return every handle to the null sink."""
    global _registry, _tracer
    _registry = None
    _tracer = None
    for handle in _metric_handles.values():
        handle._bind(None)
    for tracer_handle in _tracer_handles.values():
        tracer_handle._bind(None)


def active_registry() -> Registry | None:
    return _registry


def active_tracer() -> Tracer | None:
    return _tracer


@contextmanager
def session(
    registry: Registry | None = None,
    tracer: Tracer | None = None,
    clock: Callable[[], float] | None = None,
) -> Iterator[tuple[Registry, Tracer]]:
    """Scope an installation to a ``with`` block; restores the previous
    sink (or the null sink) on exit."""
    previous = (_registry, _tracer)
    installed = install(registry, tracer, clock)
    try:
        yield installed
    finally:
        if previous == (None, None):
            uninstall()
        else:
            install(previous[0], previous[1])
