"""repro.obs — the simulator's observability layer.

Zero-dependency metrics (:class:`Counter`, :class:`Gauge`,
:class:`Histogram` in a :class:`Registry`), one label-keyed event log
(the provenance :class:`JourneyTracker`), exporters (JSON lines +
human tables), and a ``python -m repro.obs report`` CLI.

Components keep their counts as their own integers and publish them
only while a registry is installed — a :class:`Tallies` table per
component, read at an entry point and published as deltas at its end::

    from repro.obs import Tallies, runtime as obs_runtime
    _TALLIES = Tallies({"stats.frames_in": ("netsim", "link.frames_in", "frames offered")})
    ...
    before = _TALLIES.read(self) if obs_runtime._registry is not None else None
    self.stats.frames_in += 1
    if before is not None:
        _TALLIES.publish(before, self)

Gauges and histograms are catalogued with :func:`declare` and written
at their site behind the same one read (``registry.instruments[key]``);
events are journey records, written behind one read of
``provenance._tracker`` (see :mod:`repro.obs.provenance`).  Nothing
here is called while nothing is installed (see :mod:`repro.obs.runtime`).

Observing a run::

    import repro.obs as obs
    loop = EventLoop()
    with obs.session(clock=lambda: loop.now) as (registry, _), \
            obs.journey_session(clock=lambda: loop.now) as journey:
        ...  # run the simulation
        print(obs.render_table(registry))
        obs.write_jsonl("run.jsonl", registry, journey)

All timestamps are simulated seconds from the supplied clock; nothing
in this package reads wall-clock time, so observed runs stay exactly
reproducible (see docs/observability.md).
"""

from __future__ import annotations

from repro.obs.export import (
    metric_records,
    render_table,
    write_jsonl,
)
from repro.obs.flight import (
    FlightRecorder,
    active_flight,
    flight_dump,
    flight_session,
    install_flight,
    uninstall_flight,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    Registry,
)
from repro.obs.runtime import (
    Tallies,
    active_registry,
    declare,
    install,
    session,
    uninstall,
)
from repro.obs.provenance import (
    ChunkJourney,
    JourneyTracker,
    StageRecord,
    active_journey,
    bind_journey_clock,
    frame_labels,
    install_journey,
    journey_session,
    uninstall_journey,
)
from repro.obs.snapshot import SnapshotDelta, diff_snapshots, metric_snapshot

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "MetricSample",
    "Tallies",
    "declare",
    "install",
    "uninstall",
    "session",
    "active_registry",
    "metric_records",
    "write_jsonl",
    "render_table",
    "SnapshotDelta",
    "metric_snapshot",
    "diff_snapshots",
    "StageRecord",
    "ChunkJourney",
    "JourneyTracker",
    "install_journey",
    "uninstall_journey",
    "active_journey",
    "bind_journey_clock",
    "journey_session",
    "frame_labels",
    "FlightRecorder",
    "install_flight",
    "uninstall_flight",
    "active_flight",
    "flight_session",
    "flight_dump",
]
