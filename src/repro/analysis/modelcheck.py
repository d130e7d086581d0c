"""Exhaustive checking of the live endpoint against the declared lifecycle.

:func:`explore` runs :mod:`repro.analysis.state_table`'s table against a
live :class:`~repro.transport.endpoint.ChunkEndpoint`: it reaches every
state (:class:`Snapshot`) of a bounded configuration by breadth-first
search, replaying each state's event path on a fresh endpoint, and
checks every offered event with :meth:`LiveEndpoint.step` — the declared
rows against what the endpoint did, and four invariants read off its
objects.  The conformance walks take the same steps on random
sequences.  A violation carries a shortest trace, which
:func:`counterexample_records` renders as flight-recorder JSONL.
docs/static-analysis.md, "The lifecycle checker", has the details.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

from repro.analysis.state_table import (
    CLOSED,
    CLOSING,
    ESTABLISHED,
    ESTABLISHING,
    EVENTS,
    EVICTED_IDLE,
    EVICTED_STALLED,
    STATE_TABLE,
    TOMBSTONED,
    Transition,
    row_line,
)
from repro.core.errors import EndpointError
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.host.budget import SharedPlacementBudget
from repro.netsim.events import EventLoop
from repro.obs import flight, provenance
from repro.transport.acks import build_ack_chunk, parse_ack_chunk
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint, Connection, ConnectionState, ConnectionTable
from repro.transport.sender import ChunkTransportSender

__all__ = [
    "ALPHABET",
    "VARIANTS",
    "TIMER_EVENTS",
    "ModelConfig",
    "Snapshot",
    "Step",
    "Violation",
    "ModelCheckResult",
    "LiveEndpoint",
    "explore",
    "counterexample_records",
    "write_counterexample",
]

#: Offers the table files under another of its events: a stray ACK is an
#: ``ack-chunk`` naming no TPDU its conversation times (``ack-chunk``
#: itself first sends a TPDU where it can, and acknowledges that one).
VARIANTS = {"stray-ack": "ack-chunk"}
#: Every event something can schedule, and the variants; ``tombstone-
#: overflow`` only ever fires as the cascade of a tombstoning row.
ALPHABET = (*(event for event in EVENTS if event != "tombstone-overflow"), *VARIANTS)
#: Endpoint-wide events: one ``sweep()`` reaches every conversation.
TIMER_EVENTS = ("sweep", "progress-police")

#: C.ID of conversation 0; conversation *i* is ``FIRST_CID + i``.
FIRST_CID = 9
#: Simulated seconds per offer.  A ``sweep`` jumps past the idle timeout
#: and the close linger, so every connection is due; every other offer —
#: ``progress-police`` included — advances one progress window, which is
#: all a receiver session needs to miss the progress floor.
STEP = 1.0
IDLE = 1000.0
#: Placement-pool bytes per admission token.
SHARE = 64 * 1024

#: Tombstone states by the eviction reason whose counter moved.
_TOMBSTONE_OF = {"idle": EVICTED_IDLE, "stalled": EVICTED_STALLED, "refused": TOMBSTONED}
_IN_TABLE = (ESTABLISHING, ESTABLISHED, CLOSING)

#: ``(invariant or "declared-row", message, disagreeing row id or "")``.
Problem = tuple[str, str, str]


@dataclass(frozen=True)
class ModelConfig:
    """Bounds making the endpoint's lifecycle state space finite: the
    C.IDs offered events, the receiver sessions the placement pool can
    admit, and the tombstone FIFO's capacity."""

    conversations: int = 2
    pool_tokens: int = 1
    tombstone_capacity: int = 1

    def __post_init__(self) -> None:
        for name, least in (("conversations", 1), ("pool_tokens", 0), ("tombstone_capacity", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass(frozen=True, order=True)
class Snapshot:
    """The endpoint's lifecycle state, one entry per conversation index."""

    states: tuple[str, ...]
    receivers: tuple[bool, ...]
    registered: int
    #: conversations in connection-table order (the order a sweep evicts in).
    order: tuple[int, ...] = ()
    #: conversations in the tombstone FIFO, oldest first.
    tombstones: tuple[int, ...] = ()


@dataclass(frozen=True)
class Step:
    """One offered event (to conversation *conv*, or None for a timer):
    the rows it fired and the states either side."""

    event: str
    conv: int | None
    fired: tuple[tuple[int, Transition], ...]
    before: Snapshot
    after: Snapshot


@dataclass(frozen=True)
class Violation:
    """A broken invariant or a disagreeing row (its id, else ""), with
    the shortest trace that reaches it."""

    invariant: str
    message: str
    row: str
    trace: tuple[Step, ...]

    @property
    def state(self) -> Snapshot:
        return self.trace[-1].after


@dataclass
class ModelCheckResult:
    """Outcome of one exhaustive exploration."""

    states_explored: int = 0
    edges: int = 0
    fired: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def uncovered(self) -> list[str]:
        """Declared transitions this configuration never fired."""
        return sorted(set(STATE_TABLE.by_id) - set(self.fired))


def _config(cid: int) -> ConnectionConfig:
    return ConnectionConfig(connection_id=cid, tpdu_units=16)


def _table_state(connection: Connection) -> str:
    if connection.state is ConnectionState.CLOSED:
        return CLOSING
    sender = connection.sender
    if connection.receiver is None and sender is not None and sender.acks_received == 0:
        return ESTABLISHING
    return ESTABLISHED


def _sends(connection: Connection | None) -> bool:
    """Whether an ``ack-chunk`` offer first sends a TPDU on *connection*
    and then acknowledges that one: an open conversation's sender can."""
    return (
        connection is not None
        and connection.sender is not None
        and connection.state is ConnectionState.ESTABLISHED
    )


def _acks_timed(connection: Connection | None, chunks: list) -> bool:
    """Whether *chunks* acknowledge a TPDU *connection*'s sender is timing."""
    sender = None if connection is None else connection.sender
    return sender is not None and not {
        t_id for chunk in chunks if chunk.type is ChunkType.ACK for t_id in parse_ack_chunk(chunk)
    }.isdisjoint(sender.outstanding)


class LiveEndpoint:
    """A fresh :class:`ChunkEndpoint` and its peers: :func:`explore` and
    the conformance walks both offer it events through :meth:`step`."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.cids = tuple(range(FIRST_CID, FIRST_CID + config.conversations))
        self.loop = EventLoop()
        self.endpoint = ChunkEndpoint(
            self.loop,
            transmit=self._transmitted,
            budget=SharedPlacementBudget(
                pool_bytes=config.pool_tokens * SHARE, min_share_bytes=SHARE
            ),
            table=ConnectionTable(tombstone_capacity=config.tombstone_capacity),
            idle_timeout=IDLE,
            close_linger=IDLE,
            # No conversation here ever meets the floor: policing evicts
            # every established receiver session one window old.
            min_progress_bytes=1 << 30,
            progress_window=STEP,
        )
        self.peers = {cid: ChunkTransportSender(_config(cid)) for cid in self.cids}
        count = config.conversations
        self.state = Snapshot((CLOSED,) * count, (False,) * count, 0)
        #: refused chunks the table files under each refusal kind.
        self.expect_unknown = self.expect_evicted = 0
        self._verified: set[tuple[int, int]] = set()
        self._unverified_acks: list[tuple[int, int]] = []

    def replay(self, path: tuple[Step, ...]) -> None:
        """Re-run *path*'s offers unchecked: the endpoint is deterministic,
        so it reaches the state the path recorded."""
        for taken in path:
            self._offer(taken.event, taken.conv, self._prepare(taken.event, taken.conv))
        if path:
            self.state = path[-1].after

    # -- the table's side --------------------------------------------

    def _expect(
        self, event: str, conv: int | None, chunks: list
    ) -> tuple[list[tuple[int, Transition]], Snapshot, list[tuple[str, str]]]:
        """The rows *event* fires from :attr:`state` as the endpoint is
        about to take *chunks*, where they lead, and any row whose guard
        overlaps an earlier row's on the way."""
        before = self.state
        acked = conv is not None and _acks_timed(self.endpoint.connection(self.cids[conv]), chunks)
        states, receivers = list(before.states), list(before.receivers)
        order, tombstones = list(before.order), list(before.tombstones)
        registered = before.registered
        fired: list[tuple[int, Transition]] = []
        overlaps: list[tuple[str, str]] = []

        def row(c: int, on: str) -> Transition | None:
            free = registered < self.config.pool_tokens
            guards = {
                "": True,
                "pool-has-token": free,
                "pool-exhausted": not free,
                "has-receiver": receivers[c],
                "receiver-admissible": free and not receivers[c],
                "acks-sent-tpdu": c == conv and acked,
            }
            rows = [
                transition
                for transition in STATE_TABLE.outgoing(states[c])
                if transition.event == on and guards[transition.guard]
            ]
            overlaps.extend(  # the guards must partition the event
                (t.transition_id, f"its guard overlaps {rows[0].transition_id}'s")
                for t in rows[1:]
            )
            return rows[0] if rows else None

        def fire(c: int, transition: Transition) -> None:
            nonlocal registered
            fired.append((c, transition))
            states[c] = transition.dst
            effects = transition.effects
            if "acquire-token" in effects:
                receivers[c] = True
                registered += 1
            if "release-token" in effects and receivers[c]:
                receivers[c] = False
                registered -= 1
            if transition.dst in _IN_TABLE and c not in order:
                order.append(c)
            elif transition.dst not in _IN_TABLE and c in order:
                order.remove(c)
            if "reset-conversation" in effects:
                tombstones.remove(c)
            if "tombstone" in effects:
                tombstones.append(c)
                if len(tombstones) > self.config.tombstone_capacity:
                    forget = row(tombstones[0], "tombstone-overflow")
                    if forget is not None:
                        fire(tombstones[0], forget)

        for c in before.order if conv is None else (conv,):
            transition = row(c, VARIANTS.get(event, event))
            if transition is not None:
                fire(c, transition)
        return fired, Snapshot(
            tuple(states), tuple(receivers), registered, tuple(order), tuple(tombstones)
        ), overlaps

    # -- the endpoint's side -----------------------------------------

    def _transmitted(self, frame: bytes) -> None:
        for chunk in Packet.decode(frame).chunks:
            if chunk.type is ChunkType.ACK:
                for t_id in parse_ack_chunk(chunk):
                    if (chunk.c_id, t_id) not in self._verified:
                        self._unverified_acks.append((chunk.c_id, t_id))

    def _chunks(self, cid: int, event: str) -> list:
        connection = self.endpoint.connection(cid)
        if event == "signaling-chunk":
            if connection is None or connection.receiver is None:
                # A new receiver session: a fresh peer (C.SN and T.ID from
                # zero) feeds it, and the old session's verified T.IDs lapse.
                self.peers[cid] = ChunkTransportSender(_config(cid))
                self._verified = {key for key in self._verified if key[0] != cid}
            return [self.peers[cid].establishment_chunk()]
        if event == "ack-chunk" and _sends(connection):
            assert connection is not None and connection.sender is not None
            connection.send_frame(b"\xa5" * 64)  # one whole TPDU, timed, then its ACK
            return [build_ack_chunk(cid, connection.sender.outstanding[-1:])]
        if event in ("ack-chunk", "stray-ack"):
            # Every TPDU an offer sends is acknowledged in that offer.
            return [build_ack_chunk(cid, [0])]
        placed = (
            connection is not None
            and connection.receiver is not None
            and connection.state is ConnectionState.ESTABLISHED
        )
        # Where the chunks cannot be placed, any of the conversation's will do.
        sender = self.peers[cid] if placed else ChunkTransportSender(_config(cid))
        return sender.send_frame(b"\xa5" * 8, end_of_connection=event == "cst-chunk")

    def _prepare(self, event: str, conv: int | None) -> list:
        """Advance the clock to *event* and make the chunks it offers
        (none for a local call or a timer)."""
        self.loop.schedule(IDLE if event == "sweep" else STEP, lambda: None)
        self.loop.run()
        if conv is None or event in ("local-open", "local-close"):
            return []
        return self._chunks(self.cids[conv], event)

    def _offer(self, event: str, conv: int | None, chunks: list) -> tuple[int, int, bool]:
        """Run *event*, with its *chunks*, on the endpoint:
        ``(chunks offered, refused, raised)``."""
        endpoint = self.endpoint
        offered = refused = 0
        raised = False
        if conv is None:
            endpoint.sweep()
        elif event in ("local-open", "local-close"):
            cid = self.cids[conv]
            try:
                if event == "local-open":
                    endpoint.open_connection(_config(cid), rto=0.0)
                else:
                    endpoint.close_connection(cid)
            except EndpointError:
                raised = True
        else:
            events = endpoint.receive_packet(Packet(chunks=chunks).encode())
            for received in events.per_connection.values():
                self._verified.update((v.c_id, v.t_id) for v in received.verdicts if v.ok)
            offered, refused = len(chunks), events.refused_chunks
        self.loop.run()  # this offer's ACKs go out through the transmit check
        return offered, refused, raised

    def _observe(self, reason: str) -> Snapshot:
        """The endpoint's state; a new tombstone records *reason*."""
        before = self.state
        connections = self.endpoint.table.connections
        index = {cid: c for c, cid in enumerate(self.cids)}
        tombstones = tuple(index[cid] for cid in self.endpoint.table.evicted_ids)
        states = []
        for c, cid in enumerate(self.cids):
            if cid in connections:
                states.append(_table_state(connections[cid]))
            elif c not in tombstones:
                states.append(CLOSED)
            elif before.states[c] in _TOMBSTONE_OF.values():
                states.append(before.states[c])
            else:
                states.append(_TOMBSTONE_OF.get(reason, TOMBSTONED))
        receivers = tuple(
            cid in connections and connections[cid].receiver is not None for cid in self.cids
        )
        order = tuple(index[cid] for cid in connections)
        return Snapshot(
            tuple(states), receivers, self.endpoint.budget.registered, order, tombstones
        )

    # -- one edge ----------------------------------------------------

    def step(self, event: str, conv: int | None) -> tuple[Step, list[Problem]]:
        """Offer *event* to conversation *conv* (a timer reaches all) and
        check the edge; returns the step and what it broke."""
        if event in TIMER_EVENTS:
            conv = None
        before = self.state
        stats = self.endpoint.stats()
        chunks = self._prepare(event, conv)
        fired, expected, overlaps = self._expect(event, conv, chunks)
        offered, refused, raised = self._offer(event, conv, chunks)
        moved = {key: value - stats[key] for key, value in self.endpoint.stats().items()}
        stalled = moved["stalled_evictions"]
        reasons = [
            reason
            for reason, count in (("idle", moved["evicted_total"] - stalled),
                                  ("stalled", stalled), ("refused", moved["connections_refused"]))
            if count > 0
        ]
        after = self.state = self._observe(reasons[0] if len(reasons) == 1 else "")
        problems = self._invariants(before, after, reasons)

        # The edge: the guards partition each event, the rows lead exactly
        # where the endpoint went, and where no row fires nothing moves ...
        own = next((t.transition_id for c, t in fired if c == conv), "")
        disagreements = overlaps
        if after != expected:
            blame = next((
                t.transition_id for c, t in reversed(fired)
                if (after.states[c], after.receivers[c])
                != (expected.states[c], expected.receivers[c])
            ), own or (fired[0][1].transition_id if fired else ""))
            disagreements.append((blame, f"expects {expected}, the endpoint shows {after}"))
        # ... refusal is exactly a refuse-* row, filed by tombstone ...
        if offered:
            if refused not in (0, offered) or (
                own and (refused == offered) != own.startswith("refuse-")
            ):
                disagreements.append((own, f"{refused} of {offered} chunks refused"))
            filed = (0, refused) if conv in expected.tombstones else (refused, 0)
            self.expect_unknown += filed[0]
            self.expect_evicted += filed[1]
            shown = (moved["refused_unknown"], moved["refused_evicted"])
            if shown != filed:
                disagreements.append(
                    (own, f"refused (unknown, evicted) {shown}, the table says {filed}")
                )
        # ... and a declared local call succeeds.
        if raised and own:
            disagreements.append((own, "the endpoint raised"))
        problems.extend(
            ("declared-row", f"{event}, {row or 'no row'}: {message}", row)
            for row, message in disagreements
        )
        return Step(event, conv, tuple(fired), before, after), problems

    def _invariants(self, before: Snapshot, after: Snapshot, reasons: list[str]) -> list[Problem]:
        """The four invariants, read from the live objects."""
        problems: list[Problem] = [
            ("acked-unplaced", f"C.ID {cid} ACKed T.ID {t_id}, which it never verified", "")
            for cid, t_id in self._unverified_acks
        ]
        self._unverified_acks.clear()
        problems.extend(
            ("tombstone-monotonic",
             f"conversation {c} is tombstoned but resurrected to {after.states[c]}", "")
            for c in after.tombstones
            if self.cids[c] in self.endpoint.table.connections
        )
        if set(after.tombstones) - set(before.tombstones) and len(reasons) != 1:
            problems.append(
                ("reason-exclusive", f"a new tombstone has reasons {reasons or 'none'}", "")
            )
        held, pool = sum(after.receivers), self.config.pool_tokens
        if after.registered != held or after.registered > pool:
            problems.append((
                "token-conserved",
                f"{after.registered} registered, {held} receiver sessions, a pool of {pool}",
                "",
            ))
        return problems


def explore(config: ModelConfig | None = None, stop_at_first: bool = True) -> ModelCheckResult:
    """Breadth-first fixpoint over every reachable endpoint state.

    Each state is reached by replaying its event path on a fresh
    :class:`LiveEndpoint` and is offered every event of the alphabet —
    a timer once, the rest once per conversation.  The endpoint treats
    its C.IDs alike, so states that differ only by a renaming of the
    conversations are one state here.  The bounds in *config* make the
    space finite, and BFS order gives every violation a shortest trace.

    The replays are the search's machinery, not a history: they run with
    no journey tracker or flight recorder installed (a recorder would
    dump a black box per replayed stall eviction), though a metrics
    session still counts them.
    """
    config = config or ModelConfig()
    result = ModelCheckResult()
    offers = [
        (event, conv)
        for event in ALPHABET
        for conv in ((None,) if event in TIMER_EVENTS else range(config.conversations))
    ]
    renamings = list(permutations(range(config.conversations)))
    root = LiveEndpoint(config).state
    paths: dict[Snapshot, tuple[Step, ...]] = {root: ()}
    queue: deque[Snapshot] = deque([root])
    tracker, recorder = provenance.active_journey(), flight.active_flight()
    flight.uninstall_flight()
    provenance.uninstall_journey()
    try:
        while queue:
            path = paths[queue.popleft()]
            result.states_explored += 1
            for event, conv in offers:
                live = LiveEndpoint(config)
                live.replay(path)
                step, problems = live.step(event, conv)
                result.edges += 1
                for _, transition in step.fired:
                    tid = transition.transition_id
                    result.fired[tid] = result.fired.get(tid, 0) + 1
                trace = path + (step,)
                result.violations.extend(Violation(*problem, trace) for problem in problems)
                if problems and stop_at_first:
                    return result
                state = min(_rename(step.after, new) for new in renamings)
                if state not in paths:
                    paths[state] = trace
                    queue.append(state)
    finally:
        if tracker is not None:
            provenance.install_journey(tracker)
        if recorder is not None:
            flight.install_flight(recorder)
    return result


def _rename(state: Snapshot, new: tuple[int, ...]) -> Snapshot:
    """*state* with conversation ``c`` renamed ``new[c]``."""
    old = sorted(range(len(new)), key=new.__getitem__)
    return Snapshot(
        tuple(state.states[c] for c in old),
        tuple(state.receivers[c] for c in old),
        state.registered,
        tuple(new[c] for c in state.order),
        tuple(new[c] for c in state.tombstones),
    )


def counterexample_records(violation: Violation) -> list[dict[str, object]]:
    """The violation's trace as flight-dump records.

    Format matches :meth:`repro.obs.flight.FlightRecorder.snapshot`: a
    ``flight-meta`` header then ``conn``-level provenance records, one
    per fired row — or, for a step that fired none, one named by its
    event with the states the endpoint showed — so
    :func:`repro.obs.perfetto.journeys_to_trace` renders the trace on
    per-conversation lifecycle lanes.
    """
    moves: list[tuple[int, Transition | None, str, str, str]] = []
    for step in violation.trace:
        moves.extend((c, t, t.src, t.dst, t.event) for c, t in step.fired)
        if not step.fired:
            before, after = step.before.states, step.after.states
            moves.extend(
                (c, None, before[c], after[c], step.event)
                for c in range(len(after))
                if c == step.conv or before[c] != after[c]
            )
    records: list[dict[str, object]] = [{
        "kind": "flight-meta",
        "trigger": "modelcheck",
        "tag": violation.invariant,
        "seq": 0,
        "ring_size": len(moves),
        "conversations": len(violation.state.states),
        "records_seen": len(moves),
        "message": violation.message,
    }]
    for number, (conv, transition, src, dst, event) in enumerate(moves):
        tid = None if transition is None else transition.transition_id
        records.append({
            "kind": "provenance",
            "t": float(number),
            "stage": tid or event,
            "c_id": conv,
            "offset": 0,
            "length": 0,
            "gen": 0,
            "level": "conn",
            "fields": {
                "transition": tid,
                "from": src,
                "to": dst,
                "event": event,
                "table_line": 0 if tid is None else row_line(tid),
            },
        })
    return records


def write_counterexample(violation: Violation, path: Path) -> Path:
    """Write one deterministic JSONL counterexample dump."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in counterexample_records(violation)
    )
    path.write_text(text, encoding="utf-8")
    return path
