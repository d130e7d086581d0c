"""simsan — an opt-in runtime sanitizer for the event loop.

The static passes cannot see every aliasing bug: a ``bytearray`` handed
to a scheduled callback and then mutated before the callback runs is
perfectly legal Python, but the callback observes bytes the scheduler
never agreed to — the in-simulator analogue of the OS/NIDS reassembly
divergence caused by overlapping network data.  ``simsan`` catches it
dynamically:

- at **schedule** time it fingerprints every mutable buffer
  (``bytearray`` / ``memoryview``) reachable from the callback —
  closure cells, default arguments, ``functools.partial`` arguments,
  one level into list/tuple/dict containers — and records the
  scheduling backtrace;
- at **dispatch** time it re-fingerprints and raises
  :class:`~repro.core.errors.SimSanError` (or records a
  :class:`SimSanViolation` in ``report`` mode) on any mismatch,
  pointing at the scheduling call site;
- independently, it folds every ``(time, seq, callsite)`` schedule
  event into a running SHA-256 **audit digest**, so two runs of a
  seeded scenario can be compared for scheduling nondeterminism with a
  single string comparison;
- for each :class:`~repro.transport.shard.ShardedEndpoint` handed to
  :meth:`SimSanitizer.watch`, it holds the **shard boundary**: an event
  one shard's member loop runs changes that shard's state and no
  other's, and leaves the pool balanced — the label's ownership of a
  chunk (it alone names the shard), checked by running the shards.

Immutable ``bytes`` payloads are skipped: they cannot mutate, and the
hot path ships almost exclusively ``bytes`` — which keeps the
sanitizer's steady-state cost at one hash update per schedule.

Enabling it
-----------

- ``REPRO_SIMSAN=1`` in the environment (the test suite's ``conftest``
  installs the sanitizer for the whole session — CI runs a dedicated
  lane this way);
- programmatically::

      from repro.analysis import simsan

      with simsan.session() as san:
          loop.run()
      print(san.audit.digest())
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import traceback
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, NoReturn

from repro.core.errors import SimSanError
from repro.netsim import events as _events

if TYPE_CHECKING:
    from repro.netsim.events import EventLoop
    from repro.transport.shard import ShardedEndpoint

__all__ = [
    "SimSanitizer",
    "SimSanViolation",
    "ScheduleAuditLog",
    "install",
    "uninstall",
    "current",
    "session",
    "enabled_by_env",
]

ENV_VAR = "REPRO_SIMSAN"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: frames belonging to the machinery itself, skipped when attributing
#: a schedule to its call site.
_INTERNAL_FILES = (os.path.join("netsim", "events.py"), os.path.join("analysis", "simsan.py"))


def enabled_by_env() -> bool:
    """True when ``REPRO_SIMSAN`` requests the sanitizer."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def _callsite() -> str:
    """``file:line`` of the nearest frame outside the loop/sanitizer.

    Uses raw frame walking rather than :func:`traceback.extract_stack`:
    this runs on *every* schedule when the sanitizer is installed, and
    must not read source lines.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(_INTERNAL_FILES):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _iter_buffers(obj: Any, label: str, depth: int = 0) -> Iterator[tuple[str, Any]]:
    """Mutable buffers reachable from *obj* (bounded, non-executing)."""
    if isinstance(obj, (bytearray, memoryview)):
        yield label, obj
        return
    if depth >= 2:
        return
    if isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            yield from _iter_buffers(item, f"{label}[{index}]", depth + 1)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _iter_buffers(value, f"{label}[{key!r}]", depth + 1)


def _callback_buffers(callback: Callable[[], None]) -> list[tuple[str, Any]]:
    """Every mutable buffer a scheduled callback captured."""
    found: list[tuple[str, Any]] = []
    seen_fns: set[int] = set()
    stack: list[tuple[str, Any]] = [("callback", callback)]
    while stack:
        label, fn = stack.pop()
        if id(fn) in seen_fns:
            continue
        seen_fns.add(id(fn))
        if isinstance(fn, functools.partial):
            for index, arg in enumerate(fn.args):
                found.extend(_iter_buffers(arg, f"{label}.args[{index}]"))
            for key, value in fn.keywords.items():
                found.extend(_iter_buffers(value, f"{label}.kwargs[{key}]"))
            stack.append((f"{label}.func", fn.func))
            continue
        func = getattr(fn, "__func__", fn)  # unwrap bound methods
        for index, default in enumerate(getattr(func, "__defaults__", None) or ()):
            found.extend(_iter_buffers(default, f"{label}.defaults[{index}]"))
        for key, value in (getattr(func, "__kwdefaults__", None) or {}).items():
            found.extend(_iter_buffers(value, f"{label}.kwdefaults[{key}]"))
        closure = getattr(func, "__closure__", None) or ()
        names = getattr(getattr(func, "__code__", None), "co_freevars", ())
        for index, cell in enumerate(closure):
            try:
                contents = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                continue
            name = names[index] if index < len(names) else str(index)
            found.extend(_iter_buffers(contents, f"{label}.closure[{name}]"))
    return found


def _digest(buffer: Any) -> str:
    return hashlib.sha1(bytes(buffer)).hexdigest()


@dataclass(frozen=True)
class SimSanViolation:
    """One detected mutation-after-schedule aliasing event."""

    time: float  #: simulated dispatch time of the affected event
    seq: int  #: the event's FIFO sequence number
    callsite: str  #: file:line that scheduled the callback
    buffer_label: str  #: where in the callback the buffer was captured
    scheduled_digest: str
    dispatched_digest: str
    backtrace: tuple[str, ...]  #: formatted scheduling stack

    def describe(self) -> str:
        trace = "".join(self.backtrace).rstrip()
        return (
            f"buffer {self.buffer_label} scheduled at {self.callsite} "
            f"(event seq={self.seq}, t={self.time}) was mutated between "
            f"schedule and dispatch: {self.scheduled_digest[:12]} -> "
            f"{self.dispatched_digest[:12]}\nscheduling backtrace:\n{trace}"
        )


class ScheduleAuditLog:
    """Rolling hash over the ``(time, seq, callsite)`` schedule stream.

    Two runs of the same seeded scenario must produce identical
    digests; any divergence means scheduling nondeterminism crept in
    (an unseeded rng, wall-clock coupling, dict-order dependence...).
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.entries = 0

    def record(self, time: float, seq: int, callsite: str) -> None:
        self._hash.update(f"{time!r}|{seq}|{callsite}\n".encode("utf-8"))
        self.entries += 1

    def digest(self) -> str:
        return self._hash.hexdigest()


@dataclass(frozen=True)
class _BufferRecord:
    callsite: str
    fingerprints: tuple[tuple[str, str], ...]  #: (label, digest)
    backtrace: tuple[str, ...]


@dataclass
class SimSanitizer:
    """The schedule observer implementing the sanitizer.

    Attributes:
        raise_on_violation: raise :class:`SimSanError` at dispatch
            (default) instead of only recording the violation.
        audit: the run's :class:`ScheduleAuditLog`.
        violations: every detected violation (also populated when
            raising, so post-mortem inspection works either way).
            A cross-shard change or unbalanced pool always raises.
    """

    raise_on_violation: bool = True
    audit: ScheduleAuditLog = field(default_factory=ScheduleAuditLog)
    violations: list[SimSanViolation] = field(default_factory=list)
    buffers_tracked: int = 0
    #: per-loop pending records; weak keys so abandoned loops free them.
    _pending: "weakref.WeakKeyDictionary[EventLoop, dict[int, _BufferRecord]]" = field(
        default_factory=weakref.WeakKeyDictionary
    )
    #: watched sharded endpoints; each shard's member loop → its label.
    _watched: "list[ShardedEndpoint]" = field(default_factory=list)
    _members: "dict[EventLoop, str]" = field(default_factory=dict)
    #: scheduling callsite of every pending event on a shard's member.
    _sites: "dict[tuple[EventLoop, int], str]" = field(default_factory=dict)
    #: the event dispatched last: its shard (None off the shards), its
    #: callsite, and every shard's fingerprint before it ran.
    _running: str | None = None
    _site: str = "<unknown>"
    _before: dict[str, dict[str, int]] = field(default_factory=dict)

    def watch(self, sharded: "ShardedEndpoint") -> None:
        """Hold *sharded*'s shard boundary for the rest of the session.

        An event that shard *i*'s member loop runs may move shard *i*'s
        fingerprint — its endpoint's :meth:`stats` (table size,
        tombstones, reserved bytes, ...), its budget's registrations and
        backing, its pool loan, its egress lane — and no other's, and
        must leave the pool's books balanced (``lent_total`` == the
        shards' loans == their budgets' backing), or
        :class:`SimSanError` names the shards and the event's scheduling
        callsite.  Member 0 (network, workload, ingress fan-out, egress
        flush) is the composition and may touch any shard.  An event is
        checked at the next dispatch, the last one at session exit, so
        touch shards outside events only before or after the session.
        """
        for shard in sharded.shards:
            label = f"endpoint {len(self._watched)} shard {shard.index}"
            self._members[shard.endpoint.loop] = label
        self._watched.append(sharded)

    def _fingerprints(self) -> dict[str, dict[str, int]]:
        return {
            self._members[shard.endpoint.loop]: {
                **shard.endpoint.stats(),
                "budget_registered": shard.endpoint.budget.registered,
                "budget_backing": shard.endpoint.budget.pool_bytes,
                "pool_loan": sharded.pool.lent_to(shard.index),
                "egress_lane": len(sharded.egress._lanes[shard.index]),
            }
            for sharded in self._watched
            for shard in sharded.shards
        }

    def _check_shards(self) -> dict[str, dict[str, int]] | None:
        """Check the last event, now that it ran, if a shard ran it."""
        running, self._running = self._running, None
        if running is None:
            return None
        after = self._fingerprints()
        for shard, prints in after.items():
            before = self._before[shard]
            if shard != running and prints != before:
                moved = {k: f"{before[k]} -> {v}" for k, v in prints.items() if v != before[k]}
                self._fail(
                    shard,
                    f"cross-shard mutation: the event on {running}'s member, "
                    f"scheduled at {self._site}, changed {shard}'s state: {moved}",
                )
        for number, sharded in enumerate(self._watched):
            pool = sharded.pool
            loans = sum(pool.lent_to(shard.index) for shard in sharded.shards)
            backing = sum(shard.endpoint.budget.pool_bytes for shard in sharded.shards)
            if not pool.lent_total == loans == backing:
                self._fail(
                    "pool",
                    f"endpoint {number}'s pool books broken after the event scheduled "
                    f"at {self._site}: lent_total {pool.lent_total}, shard loans "
                    f"{loans}, shard backing {backing}",
                )
        return after

    def _fail(self, tag: str, message: str) -> NoReturn:
        from repro.obs import flight_dump

        flight_dump("simsan", tag)
        raise SimSanError(message)

    # -- ScheduleObserver protocol -------------------------------------

    def on_schedule(
        self, loop: "EventLoop", time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        callsite = _callsite()
        self.audit.record(time, seq, callsite)
        if loop in self._members:
            self._sites[loop, seq] = callsite
        buffers = _callback_buffers(callback)
        if not buffers:
            return
        self.buffers_tracked += len(buffers)
        record = _BufferRecord(
            callsite=callsite,
            fingerprints=tuple((label, _digest(buf)) for label, buf in buffers),
            backtrace=tuple(traceback.format_stack()[-8:-1]),
        )
        self._pending.setdefault(loop, {})[seq] = record

    def on_dispatch(
        self, loop: "EventLoop", time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        if self._watched:
            after = self._check_shards()
            self._running = self._members.get(loop)
            if self._running is not None:
                self._site = self._sites.pop((loop, seq), "<unknown>")
                self._before = after or self._fingerprints()
        record = self._pending.get(loop, {}).pop(seq, None)
        if record is None:
            return
        current_prints = dict(
            (label, _digest(buf)) for label, buf in _callback_buffers(callback)
        )
        for label, scheduled_digest in record.fingerprints:
            dispatched = current_prints.get(label, scheduled_digest)
            if dispatched == scheduled_digest:
                continue
            violation = SimSanViolation(
                time=time,
                seq=seq,
                callsite=record.callsite,
                buffer_label=label,
                scheduled_digest=scheduled_digest,
                dispatched_digest=dispatched,
                backtrace=record.backtrace,
            )
            self.violations.append(violation)
            if self.raise_on_violation:
                self._fail(
                    violation.buffer_label,
                    "mutation-after-schedule aliasing: " + violation.describe(),
                )


# ----------------------------------------------------------------------
# installation

def install(sanitizer: SimSanitizer | None = None) -> SimSanitizer:
    """Install *sanitizer* (or a fresh one) as the loop observer."""
    active = sanitizer or SimSanitizer()
    _events.set_schedule_observer(active)
    return active


def uninstall() -> None:
    """Remove the sanitizer if one is installed."""
    if isinstance(_events.get_schedule_observer(), SimSanitizer):
        _events.set_schedule_observer(None)


def current() -> SimSanitizer | None:
    """The installed sanitizer, if the observer is one."""
    observer = _events.get_schedule_observer()
    return observer if isinstance(observer, SimSanitizer) else None


@contextmanager
def session(
    sanitizer: SimSanitizer | None = None,
) -> Iterator[SimSanitizer]:
    """Install a sanitizer for the duration of a ``with`` block,
    restoring whatever observer was active before.  A clean exit checks
    the last event of every watched sharded endpoint."""
    previous = _events.get_schedule_observer()
    active = install(sanitizer)
    try:
        yield active
        active._check_shards()
    finally:
        _events.set_schedule_observer(previous)
