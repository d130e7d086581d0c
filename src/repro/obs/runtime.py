"""The instrumentation runtime: the installed sink and the series catalogue.

Instrumented code holds no handle objects: it reads the installed sink
— ``runtime._registry``, or ``provenance._tracker`` for the event log,
one module-attribute load — and does nothing more while that is
``None``, so an unobserved run makes no call into ``repro.obs`` at all.  A number reaches the
registry one of two ways, by what it is:

- **a counter that mirrors an integer the component keeps** is
  published by :class:`Tallies`: the entry point reads its integers
  when a registry is installed and publishes their growth once, at its
  end — the component's integer *is* the number;
- **a gauge or a histogram** (and an event count with no integer behind
  it) is written where it happens, straight into the installed
  registry's instrument, so a peak inside one call survives::

      _PENDING = declare(Gauge, "netsim", "router.pending_chunks", "chunks batched")
      ...
      registry = obs_runtime._registry
      if registry is not None:
          registry.instruments[_PENDING].set(len(self._pending))

Series are declared once, at import time, into a catalogue;
:func:`install` creates every catalogued series in the registry it
installs, so a snapshot's key set does not depend on which code ran.
:func:`session` scopes an installation to a ``with`` block and restores
whatever was active before, so nested observed runs (a bench inside a
test) behave.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Iterator

from repro.obs import provenance
from repro.obs.metrics import Counter, Instrument, Registry

__all__ = [
    "Tallies",
    "declare",
    "install",
    "uninstall",
    "active_registry",
    "session",
]

_registry: Registry | None = None
#: every declared series, by ``(scope, name)``: its instrument kind and help.
_catalogue: dict[tuple[str, str], tuple[type[Instrument], str]] = {}


def declare(kind: type[Instrument], scope: str, name: str, help: str = "") -> tuple[str, str]:
    """Catalogue the series ``scope``/``name``; returns its key in
    :attr:`Registry.instruments`.  Declaring a key again is a no-op
    (its first help text stays); declaring it as another kind raises."""
    key = (scope, name)
    known = _catalogue.setdefault(key, (kind, help))
    if known[0] is not kind:
        raise ValueError(f"{scope}.{name} is a {known[0].__name__}, not a {kind.__name__}")
    if _registry is not None:
        _registry._get(kind, scope, name, help)
    return key


class Tallies:
    """Counters that mirror integers a component keeps, by attribute.

    *table* maps an attribute path (``"stats.frames_in"``) to the
    ``(scope, name, help)`` of the counter it feeds.  An entry point
    reads the integers only when a registry is installed and publishes
    their deltas once, at its end::

        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        ...  # the call's own work
        if before is not None:
            _TALLIES.publish(before, self)

    An entry point that calls another publisher of the same table (a
    router's ``receive`` may flush through ``_emit``) publishes before
    that call, or the inner call's growth would be counted twice.
    """

    __slots__ = ("read", "_keys")

    def __init__(self, table: dict[str, tuple[str, str, str]]) -> None:
        self._keys = tuple(declare(Counter, *series) for series in table.values())
        getter = attrgetter(*table)
        # ``attrgetter`` of one name returns the value, of several a tuple.
        self.read: Callable[[object], tuple[int, ...]] = (
            getter if len(table) > 1 else lambda obj: (getter(obj),)
        )

    def publish(self, before: tuple[int, ...], obj: object) -> None:
        """Add the growth of *obj*'s integers since *before* to the
        installed registry (nothing, if it was uninstalled meanwhile)."""
        registry = _registry
        if registry is None:
            return
        instruments = registry.instruments
        for key, old, new in zip(self._keys, before, self.read(obj)):
            if new != old:
                instruments[key].inc(new - old)


def install(
    registry: Registry | None = None,
    clock: Callable[[], float] | None = None,
) -> Registry:
    """Make *registry* (fresh when omitted) the installed sink.

    Creates every catalogued series in it.  ``clock`` (typically
    ``lambda: loop.now``) must be simulated time, never the wall clock.
    """
    global _registry
    _registry = registry if registry is not None else Registry()
    if clock is not None:
        _registry.clock = clock
    for (scope, name), (kind, help) in _catalogue.items():
        _registry._get(kind, scope, name, help)
    return _registry


def uninstall() -> None:
    """Install nothing: instrumented code stops publishing."""
    global _registry
    _registry = None


def active_registry() -> Registry | None:
    return _registry


@contextmanager
def session(
    registry: Registry | None = None,
    clock: Callable[[], float] | None = None,
) -> Iterator[tuple[Registry, provenance.JourneyTracker | None]]:
    """Scope an installation to a ``with`` block; restores the previous
    registry (or none) on exit.

    Yields the registry and the journey tracker active at entry (None
    when none is installed); a session installs no tracker itself —
    :func:`repro.obs.journey_session` does.
    """
    previous = _registry
    installed = install(registry, clock)
    try:
        yield installed, provenance._tracker
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)
