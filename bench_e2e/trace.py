"""Outside-in boundary tracer for the end-to-end benchmark.

Timing wrappers are installed from here, in the benchmark process only,
around the public callables where control enters one of the repo's
layers (``core``, ``wsc``, ``transport``, ``host``, ``netsim``).  Nothing
under ``src/`` knows about it.  Every call through a wrapper is one
span: boundary, start, end, the span it ran inside, and the C.ID when
the callable exposes one.  Spans stay in memory until the run ends.

A group's *self time* is the summed duration of its spans minus the time
their child spans cover, so the groups plus the driver's own root span
add up to the traced pass.  Code that has no wrapper of its own is
charged to the nearest enclosing span — which is why event-loop
callbacks get a span named after the module that scheduled them
(:meth:`BoundaryTracer._wrap_callback`): without it every retransmission
timer and egress flush would read as ``netsim.loop`` dispatch overhead.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Iterator

__all__ = ["BOUNDARIES", "GROUPS", "Boundary", "BoundaryTracer"]

DRIVER = "driver"


def _data_symbols(chunk: Any) -> int:
    return chunk.length * chunk.size if chunk.is_data else 0


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable.

    *group* is the stem of the per-layer metrics the span feeds
    (``core.form`` -> ``core.form_self_s``); *owner* is the class holding
    *attr*, or ``None`` for a module-level function; *units* turns one
    call's ``(args, result)`` into a work count (chunks, symbols);
    *cid* reads the conversation id off the arguments.
    """

    group: str
    module: str
    owner: str | None
    attr: str
    units: Callable[[tuple, Any], int] | None = None
    cid: Callable[[tuple], int] | None = None

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module.removeprefix('repro.')}.{owner}{self.attr}"


def _config_cid(args: tuple) -> int:
    return args[0].config.connection_id


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary(
        "core.form", "repro.core.builder", "ChunkStreamBuilder", "add_frame",
        units=lambda args, result: len(result),
        cid=lambda args: args[0].connection_id,
    ),
    Boundary("core.encode", "repro.core.packet", None, "pack_chunks"),
    Boundary("core.encode", "repro.core.packet", "Packet", "encode", units=lambda a, r: 1),
    Boundary(
        "core.decode", "repro.core.packet", "Packet", "decode",
        units=lambda args, result: len(result.chunks),
    ),
    # fragment_for_mtu runs for every packed chunk and returns at once
    # when the chunk fits; the work of fragmenting starts here.
    Boundary(
        "core.fragment", "repro.core.fragment", None, "split_to_unit_limit",
        units=lambda args, result: len(result) - 1,
    ),
    Boundary("core.virtual", "repro.core.virtual", "PduState", "record"),
    Boundary("core.virtual", "repro.core.virtual", "VirtualReassembler", "record"),
    Boundary(
        "wsc.encode", "repro.wsc.invariant", None, "encode_tpdu",
        units=lambda args, result: sum(_data_symbols(c) for c in args[0]),
        cid=lambda args: args[0][0].c.ident,
    ),
    Boundary(
        "wsc.verify", "repro.wsc.endtoend", "EndToEndReceiver", "receive",
        units=lambda args, result: _data_symbols(args[1]),
        cid=lambda args: args[1].c.ident,
    ),
    Boundary(
        "transport.send", "repro.transport.endpoint", "Connection", "send_frame",
        cid=_config_cid,
    ),
    Boundary(
        "transport.send", "repro.transport.reliability", "ReliableSender", "send_frame",
        cid=_config_cid,
    ),
    Boundary(
        "transport.send", "repro.transport.sender", "ChunkTransportSender", "send_frame",
        cid=_config_cid,
    ),
    Boundary("transport.recv", "repro.transport.receiver", "ChunkTransportReceiver",
             "receive_packet"),
    Boundary("transport.recv", "repro.transport.receiver", "ChunkTransportReceiver",
             "receive_chunks"),
    Boundary("transport.recv", "repro.transport.reliability", "ReliableReceiver",
             "receive_packet"),
    Boundary("transport.recv", "repro.transport.reliability", "ReliableReceiver",
             "receive_chunks"),
    Boundary("transport.demux", "repro.transport.endpoint", "ChunkEndpoint", "receive_packet"),
    Boundary("transport.demux", "repro.transport.endpoint", "ChunkEndpoint", "receive_chunks"),
    Boundary(
        "transport.demux", "repro.transport.endpoint", "ChunkEndpoint", "open_connection",
        cid=lambda args: args[1].connection_id,
    ),
    Boundary("transport.shard_route", "repro.transport.shard", "ShardedEndpoint",
             "receive_packet"),
    Boundary("transport.shard_route", "repro.transport.shard", "ShardedEndpoint", "flush"),
    Boundary("host.place", "repro.host.delivery", "PlacementBuffer", "place"),
    Boundary("host.place", "repro.host.delivery", "FrameStore", "place"),
    Boundary("host.budget", "repro.host.budget", "SharedPlacementBudget", "reserve"),
    Boundary("host.budget", "repro.host.budget", "SharedPlacementBudget", "release"),
    Boundary("host.budget", "repro.host.budget", "SharedPlacementBudget", "release_bytes"),
    Boundary("host.budget", "repro.host.pool", "ShardBudget", "release"),
    Boundary("host.budget", "repro.host.pool", "ShardBudget", "release_bytes"),
    Boundary("host.budget", "repro.host.pool", "GlobalBudgetPool", "lend"),
    Boundary("host.budget", "repro.host.pool", "GlobalBudgetPool", "reclaim"),
    Boundary("netsim.loop", "repro.netsim.events", "EventLoop", "run"),
    Boundary("netsim.loop", "repro.netsim.shardloop", "ShardedLoop", "run"),
    Boundary("netsim.link", "repro.netsim.link", "Link", "send"),
    Boundary("netsim.link", "repro.netsim.bottleneck", "BottleneckPort", "send"),
    Boundary("netsim.link", "repro.netsim.bottleneck", "BottleneckPort", "send_reverse"),
    Boundary("netsim.router", "repro.netsim.router", "ChunkRouter", "receive"),
)

#: Scheduled callbacks are charged to the layer whose module defined
#: them (first matching prefix wins); anything else is driver code.
_CALLBACK_GROUPS: tuple[tuple[str, str], ...] = (
    ("repro.transport.shard", "transport.shard_route"),
    ("repro.transport.", "transport.send"),
    ("repro.netsim.router", "netsim.router"),
    ("repro.netsim.", "netsim.link"),
)

GROUPS: tuple[str, ...] = tuple(dict.fromkeys(b.group for b in BOUNDARIES))


class BoundaryTracer:
    """Installs the wrappers, collects spans, folds them into self times."""

    def __init__(self) -> None:
        self._restore: list[tuple[Any, str, Any]] = []
        self._callback_ids: dict[str, int] = {}
        self.labels: list[str] = [DRIVER]
        self.groups: list[str] = [DRIVER]
        #: spans are recorded only inside :meth:`root`, so the untimed
        #: correctness check after a traced pass leaves no trace.
        self.active = False
        self.reset()

    def reset(self) -> None:
        """Forget the previous pass's spans (wrappers stay installed)."""
        count = len(self.labels)
        self.spans: list[tuple[int, int, int, int, int, int | None]] = []
        self.self_ns = [0] * count
        self.calls = [0] * count
        self.units = [0] * count
        self._next_id = 0
        self._stack: list[int] = [-1]
        self._child_ns: list[int] = [0]

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            index = self._register(boundary.label, boundary.group)
            if boundary.owner is None:
                original = getattr(module, boundary.attr)
                wrapped = self._wrap(original, index, boundary)
                # `from x import f` copies the reference: patch every
                # repro module that holds one, not only the definer.
                for holder in list(sys.modules.values()):
                    if (
                        getattr(holder, "__name__", "").startswith("repro")
                        and getattr(holder, boundary.attr, None) is original
                    ):
                        self._patch(holder, boundary.attr, wrapped)
                continue
            owner = getattr(module, boundary.owner)
            raw = owner.__dict__[boundary.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, index, boundary))
            else:
                wrapped = self._wrap(raw, index, boundary)
            self._patch(owner, boundary.attr, wrapped)
        events = importlib.import_module("repro.netsim.events")
        original_at = events.EventLoop.at

        def at(loop: Any, time: float, callback: Callable[[], None]) -> None:
            original_at(loop, time, self._wrap_callback(callback))

        self._patch(events.EventLoop, "at", at)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _patch(self, holder: Any, attr: str, value: Any) -> None:
        # vars() keeps a classmethod object intact for the restore.
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def _register(self, label: str, group: str) -> int:
        self.labels.append(label)
        self.groups.append(group)
        self.self_ns.append(0)
        self.calls.append(0)
        self.units.append(0)
        return len(self.labels) - 1

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], index: int, boundary: Boundary) -> Callable[..., Any]:
        units, cid = boundary.units, boundary.cid

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            span = self._enter()
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._exit(index, span, start, end, cid(args) if cid else None)
                if units is not None and result is not None:
                    self.units[index] += units(args, result)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        if not self.active:
            return callback
        module = getattr(callback, "__module__", None) or ""
        index = self._callback_ids.get(module)
        if index is None:
            group = next(
                (g for prefix, g in _CALLBACK_GROUPS if module.startswith(prefix)), DRIVER
            )
            index = self._register(f"callback:{module.removeprefix('repro.')}", group)
            self._callback_ids[module] = index

        def traced_callback() -> None:
            span = self._enter()
            start = perf_counter_ns()
            try:
                callback()
            finally:
                self._exit(index, span, start, perf_counter_ns(), None)

        return traced_callback

    def _enter(self) -> int:
        span = self._next_id
        self._next_id += 1
        self._stack.append(span)
        self._child_ns.append(0)
        return span

    def _exit(self, index: int, span: int, start: int, end: int, cid: int | None) -> None:
        self._stack.pop()
        covered = self._child_ns.pop()
        duration = end - start
        self.self_ns[index] += duration - covered
        self.calls[index] += 1
        self._child_ns[-1] += duration
        self.spans.append((index, span, self._stack[-1], start, end, cid))

    @contextmanager
    def root(self) -> Iterator[None]:
        """The driver's span around one traced pass; spans are recorded
        only inside it."""
        self.active = True
        span = self._enter()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._exit(0, span, start, perf_counter_ns(), None)
            self.active = False

    # -- folding -------------------------------------------------------

    def by_group(self, per_boundary: list[int]) -> dict[str, int]:
        """Sum a per-boundary list (``self_ns``, ``calls``, ``units``) into
        its groups, the driver's root span included."""
        out = {group: 0 for group in (DRIVER, *GROUPS)}
        for index, value in enumerate(per_boundary):
            out[self.groups[index]] += value
        return out

    def durations_us(self, spans: list[tuple], suffix: str) -> list[float]:
        """Durations of the *spans* whose boundary label ends with *suffix*."""
        wanted = {i for i, label in enumerate(self.labels) if label.endswith(suffix)}
        return [(end - start) / 1e3 for i, _, _, start, end, _ in spans if i in wanted]

    def write_chrome_trace(self, path: str, spans: list[tuple]) -> None:
        """Chrome ``traceEvents`` JSON (load in Perfetto / chrome://tracing)."""
        origin = min((s[3] for s in spans), default=0)
        events = []
        for index, span, parent, start, end, cid in spans:
            args: dict[str, int] = {"span": span, "parent": parent}
            if cid is not None:
                args["c_id"] = cid
            events.append({
                "name": self.labels[index], "cat": self.groups[index], "ph": "X",
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": 1, "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                      separators=(",", ":"))
