"""repro.obs — the simulator's observability layer.

Zero-dependency metrics (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`, :class:`Timer` in a :class:`Registry`), a
structured per-layer tracer (:class:`Tracer`), pluggable exporters
(JSON lines + human tables), and a ``python -m repro.obs report`` CLI.

Instrumented modules declare handles at import time and pay a null
no-op while nothing is installed::

    from repro.obs import counter
    _OBS_FRAMES = counter("netsim", "link.frames_in")
    ...
    _OBS_FRAMES.inc()          # no-op until a registry is installed

Observing a run::

    import repro.obs as obs
    loop = EventLoop()
    with obs.session(clock=lambda: loop.now) as (registry, tracer):
        ...  # run the simulation
        print(obs.render_table(registry, tracer))

All timestamps are simulated seconds from the supplied clock; nothing
in this package reads wall-clock time, so observed runs stay exactly
reproducible (see docs/observability.md).
"""

from __future__ import annotations

from repro.obs.export import (
    metric_records,
    render_table,
    trace_records,
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
    Timer,
)
from repro.obs.runtime import (
    CounterHandle,
    GaugeHandle,
    HistogramHandle,
    TimerHandle,
    TracerHandle,
    active_registry,
    active_tracer,
    counter,
    gauge,
    histogram,
    install,
    session,
    timer,
    tracer,
    uninstall,
)
from repro.obs.provenance import (
    ChunkJourney,
    JourneyHandle,
    JourneyTracker,
    StageRecord,
    active_journey,
    bind_journey_clock,
    frame_labels,
    install_journey,
    journey_handle,
    journey_session,
    uninstall_journey,
    write_journal,
)
from repro.obs.snapshot import SnapshotDelta, diff_snapshots, metric_snapshot
from repro.obs.tracing import TraceEvent, Tracer, TraceSpan

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "MetricSample",
    "Tracer",
    "TraceEvent",
    "TraceSpan",
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
    "session",
    "active_registry",
    "active_tracer",
    "metric_records",
    "trace_records",
    "write_jsonl",
    "render_table",
    "SnapshotDelta",
    "metric_snapshot",
    "diff_snapshots",
    "StageRecord",
    "ChunkJourney",
    "JourneyTracker",
    "JourneyHandle",
    "journey_handle",
    "install_journey",
    "uninstall_journey",
    "active_journey",
    "bind_journey_clock",
    "journey_session",
    "frame_labels",
    "write_journal",
    "FlightRecorder",
    "install_flight",
    "uninstall_flight",
    "active_flight",
    "flight_session",
    "flight_dump",
]
