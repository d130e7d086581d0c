"""Explicit-state model checking of the declared connection lifecycle.

:mod:`repro.core.state_table` declares the connection FSM; this module
*executes* it.  A bounded configuration (N conversations, a shared
token pool, a placement cap, a tombstone FIFO capacity) induces a
finite global state space, and :func:`explore` enumerates every
reachable interleaving of the event alphabet by breadth-first search —
exhaustively, to fixpoint, with no sampling.

On every reached state the PR 7 invariants are checked as temporal
properties:

- **no acked-unplaced bytes** — ``acked <= placed`` per conversation;
- **tombstone monotonicity** — a conversation in the tombstone FIFO
  never sits in a live state (the "resurrection" property), and every
  evicted/refused conversation is in the FIFO;
- **eviction-reason exclusivity** — each terminal state implies exactly
  one recorded reason, live states imply none;
- **budget tokens conserved** — free tokens plus held tokens always
  equals the pool size, and the pool never goes negative.

A violation yields a :class:`Violation` carrying the shortest event
trace from the all-CLOSED initial state (BFS gives minimality for
free).  :func:`counterexample_records` renders that trace in the
flight-recorder JSONL dialect — ``flight-meta`` header plus ``conn``
-level provenance records — so :func:`repro.obs.perfetto.write_trace`
turns a counterexample into a Perfetto timeline with one lifecycle
lane per conversation.

``tombstone-overflow`` is never scheduled as a free event: it fires as
a *cascade* of the ``tombstone`` effect, exactly like
:meth:`repro.core.bounded.BoundedSet.add` dropping its oldest entry.

Run ``python -m repro.analysis.modelcheck`` (CI does); the
``--inject-resurrection`` flag adds the classic bad transition — an
undeclared revival of a tombstoned C.ID — and demonstrates the checker
catching it.  That the live endpoint follows the same table is the
conformance property's job (``tests/properties/
test_lifecycle_conformance.py``), which offers a tombstoned C.ID every
event and requires it to stay tombstoned.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro.core.state_table import (
    CLOSED,
    EFFECTS,
    EVICTED_IDLE,
    EVICTED_STALLED,
    STATE_TABLE,
    TOMBSTONED,
    StateTable,
    Transition,
    row_line,
)

__all__ = [
    "ModelConfig",
    "ConvState",
    "GlobalState",
    "TraceStep",
    "Violation",
    "ModelCheckResult",
    "initial_state",
    "enabled",
    "apply_step",
    "check_invariants",
    "explore",
    "with_transition",
    "injected_resurrection",
    "counterexample_records",
    "write_counterexample",
    "main",
]

#: States whose conversations must appear in the tombstone FIFO, with
#: the eviction reason each one implies (exclusivity invariant).
_TOMBSTONE_STATES: dict[str, str] = {
    EVICTED_IDLE: "idle",
    EVICTED_STALLED: "stalled",
    TOMBSTONED: "refused",
}

#: Transition ids that *record* an eviction reason when they fire.
_REASON_OF: dict[str, str] = {
    "evict-idle": "idle",
    "evict-closed": "idle",
    "evict-unacked": "idle",
    "evict-stalled": "stalled",
    "refuse-admission": "refused",
}


@dataclass(frozen=True)
class ModelConfig:
    """Bounds making the lifecycle state space finite.

    Attributes:
        conversations: number of concurrent conversations modelled.
        pool_tokens: size of the shared placement-budget token pool.
        placement_cap: abstract placed-byte units per conversation.
        tombstone_capacity: FIFO capacity before the oldest tombstone
            is forgotten (the BoundedSet bound).
    """

    conversations: int = 2
    pool_tokens: int = 1
    placement_cap: int = 2
    tombstone_capacity: int = 1

    def __post_init__(self) -> None:
        if self.conversations < 1:
            raise ValueError(f"conversations must be positive, got {self.conversations}")
        if self.pool_tokens < 0:
            raise ValueError(f"pool_tokens must be >= 0, got {self.pool_tokens}")
        if self.placement_cap < 1:
            raise ValueError(f"placement_cap must be positive, got {self.placement_cap}")
        if self.tombstone_capacity < 1:
            raise ValueError(
                f"tombstone_capacity must be positive, got {self.tombstone_capacity}"
            )


@dataclass(frozen=True)
class ConvState:
    """One conversation's abstract state."""

    state: str = CLOSED
    placed: int = 0
    acked: int = 0
    token: bool = False
    reason: str = ""


@dataclass(frozen=True)
class GlobalState:
    """The whole endpoint: conversations, free tokens, tombstone FIFO."""

    convs: tuple[ConvState, ...]
    tokens: int
    tombstones: tuple[int, ...] = ()


@dataclass(frozen=True)
class TraceStep:
    """One fired transition in a counterexample trace."""

    conv: int
    transition: Transition


@dataclass(frozen=True)
class Violation:
    """An invariant broken on a reachable state, with its shortest trace."""

    invariant: str
    message: str
    state: GlobalState
    trace: tuple[TraceStep, ...]


@dataclass
class ModelCheckResult:
    """Outcome of one exhaustive exploration."""

    config: ModelConfig
    states_explored: int = 0
    edges: int = 0
    fired: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def uncovered(self, table: StateTable) -> list[str]:
        """Declared transitions this configuration never fired."""
        return sorted(set(table.by_id) - set(self.fired))


def initial_state(config: ModelConfig) -> GlobalState:
    return GlobalState(
        convs=tuple(ConvState() for _ in range(config.conversations)),
        tokens=config.pool_tokens,
    )


def _guard_holds(guard: str, conv: ConvState, state: GlobalState, config: ModelConfig) -> bool:
    if guard == "":
        return True
    if guard == "pool-has-token":
        return state.tokens > 0
    if guard == "pool-exhausted":
        return state.tokens <= 0
    if guard == "acked-below-placed":
        return conv.acked < conv.placed
    if guard == "has-receiver":
        return conv.token
    if guard == "receiver-admissible":
        return not conv.token and state.tokens > 0
    raise ValueError(f"model checker cannot evaluate guard {guard!r}")


def enabled(
    state: GlobalState, table: StateTable, config: ModelConfig
) -> list[tuple[int, Transition]]:
    """Every ``(conversation, transition)`` firable from *state*.

    ``tombstone-overflow`` transitions are excluded: they only fire as
    a cascade of the ``tombstone`` effect, mirroring BoundedSet.
    """
    out: list[tuple[int, Transition]] = []
    for idx, conv in enumerate(state.convs):
        for transition in table.transitions:
            if transition.event == "tombstone-overflow":
                continue
            if transition.src != conv.state:
                continue
            if _guard_holds(transition.guard, conv, state, config):
                out.append((idx, transition))
    return out


def apply_step(
    state: GlobalState, idx: int, transition: Transition, table: StateTable, config: ModelConfig
) -> tuple[GlobalState, tuple[TraceStep, ...]]:
    """Fire *transition* on conversation *idx*; returns the successor
    state and every step taken (the transition itself plus any
    ``forget-*`` cascade forced by tombstone-FIFO overflow)."""
    convs = list(state.convs)
    tokens = state.tokens
    tombstones = list(state.tombstones)
    steps: list[TraceStep] = [TraceStep(idx, transition)]

    def fire(conv_idx: int, fired: Transition) -> None:
        nonlocal tokens
        conv = convs[conv_idx]
        conv = replace(
            conv,
            state=fired.dst,
            reason=_REASON_OF.get(fired.transition_id, conv.reason),
        )
        for effect in sorted(fired.effects, key=EFFECTS.index):
            if effect == "acquire-token":
                tokens -= 1
                conv = replace(conv, token=True)
            elif effect == "release-token":
                if conv.token:
                    tokens += 1
                conv = replace(conv, token=False)
            elif effect == "tombstone":
                tombstones.append(conv_idx)
            elif effect == "place-bytes":
                # Saturating: the cap bounds the explored space, not the endpoint.
                conv = replace(conv, placed=min(conv.placed + 1, config.placement_cap))
            elif effect == "ack-bytes":
                conv = replace(conv, acked=conv.acked + 1)
            elif effect == "reset-conversation":
                conv = ConvState()
                if conv_idx in tombstones:
                    tombstones.remove(conv_idx)
        convs[conv_idx] = conv
        # FIFO overflow cascade: forgetting the oldest tombstone is a
        # declared transition too, selected by the victim's state.
        while len(tombstones) > config.tombstone_capacity:
            victim = tombstones.pop(0)
            forget = _forget_transition(table, convs[victim].state)
            if forget is None:
                break
            steps.append(TraceStep(victim, forget))
            tombstones.insert(0, victim)  # fire() pops it via reset
            fire(victim, forget)

    fire(idx, transition)
    return GlobalState(tuple(convs), tokens, tuple(tombstones)), tuple(steps)


def _forget_transition(table: StateTable, state: str) -> Transition | None:
    for transition in table.transitions:
        if transition.event == "tombstone-overflow" and transition.src == state:
            return transition
    return None


# ----------------------------------------------------------------------
# Invariants (the PR 7 properties, phrased over model states)
# ----------------------------------------------------------------------


def check_invariants(state: GlobalState, config: ModelConfig) -> list[tuple[str, str]]:
    """``(invariant-name, message)`` for every property *state* breaks."""
    problems: list[tuple[str, str]] = []

    for idx, conv in enumerate(state.convs):
        if conv.acked > conv.placed:
            problems.append(
                (
                    "acked-unplaced",
                    f"conversation {idx} acked {conv.acked} > placed {conv.placed}",
                )
            )

    fifo = set(state.tombstones)
    for idx in state.tombstones:
        if state.convs[idx].state not in _TOMBSTONE_STATES:
            problems.append(
                (
                    "tombstone-monotonic",
                    f"conversation {idx} is tombstoned but resurrected to "
                    f"{state.convs[idx].state}",
                )
            )
    for idx, conv in enumerate(state.convs):
        if conv.state in _TOMBSTONE_STATES and idx not in fifo:
            problems.append(
                (
                    "tombstone-monotonic",
                    f"conversation {idx} is {conv.state} but missing from the "
                    "tombstone FIFO",
                )
            )

    for idx, conv in enumerate(state.convs):
        expected = _TOMBSTONE_STATES.get(conv.state, "")
        if expected and conv.reason != expected:
            problems.append(
                (
                    "reason-exclusive",
                    f"conversation {idx} in {conv.state} has reason "
                    f"{conv.reason!r}, expected {expected!r}",
                )
            )

    held = sum(1 for conv in state.convs if conv.token)
    if state.tokens < 0 or state.tokens + held != config.pool_tokens:
        problems.append(
            (
                "token-conserved",
                f"{state.tokens} free + {held} held != pool of "
                f"{config.pool_tokens}",
            )
        )
    return problems


# ----------------------------------------------------------------------
# Exhaustive exploration
# ----------------------------------------------------------------------


def explore(
    table: StateTable = STATE_TABLE,
    config: ModelConfig | None = None,
    stop_at_first: bool = True,
) -> ModelCheckResult:
    """Breadth-first fixpoint over every reachable interleaving.

    The bounds in *config* make the space finite, so this terminates
    without a depth cutoff.  BFS order means any reported violation
    carries a shortest counterexample trace.
    """
    config = config or ModelConfig()
    result = ModelCheckResult(config=config)
    root = initial_state(config)
    parents: dict[GlobalState, tuple[GlobalState, tuple[TraceStep, ...]] | None] = {root: None}
    queue: deque[GlobalState] = deque([root])

    def trace_to(state: GlobalState) -> tuple[TraceStep, ...]:
        steps: list[TraceStep] = []
        cursor: GlobalState | None = state
        while cursor is not None:
            edge = parents[cursor]
            if edge is None:
                break
            cursor, taken = edge
            steps[:0] = taken
        return tuple(steps)

    def record(state: GlobalState) -> bool:
        """Check invariants; True when exploration should stop."""
        for invariant, message in check_invariants(state, config):
            result.violations.append(
                Violation(invariant, message, state, trace_to(state))
            )
            if stop_at_first:
                return True
        return False

    if record(root):
        result.states_explored = 1
        return result

    while queue:
        state = queue.popleft()
        result.states_explored += 1
        for idx, transition in enabled(state, table, config):
            successor, steps = apply_step(state, idx, transition, table, config)
            result.edges += 1
            for step in steps:
                tid = step.transition.transition_id
                result.fired[tid] = result.fired.get(tid, 0) + 1
            if successor in parents:
                continue
            parents[successor] = (state, steps)
            if record(successor):
                result.states_explored += 1
                return result
            queue.append(successor)
    return result


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


def with_transition(table: StateTable, transition: Transition) -> StateTable:
    """A copy of *table* with one extra transition (fault injection)."""
    return StateTable(
        states=table.states,
        initial=table.initial,
        transitions=table.transitions + (transition,),
    )


def injected_resurrection() -> Transition:
    """The canonical bad transition: a tombstoned C.ID re-admitted.

    Injecting this row makes :func:`explore` produce a
    tombstone-monotonicity counterexample.
    """
    return Transition(
        "bad-resurrect",
        TOMBSTONED,
        "signaling-chunk",
        "ESTABLISHED",
        notes="INJECTED FAULT: revives a refused C.ID without clearing its tombstone",
    )


# ----------------------------------------------------------------------
# Counterexample traces (flight-recorder JSONL dialect)
# ----------------------------------------------------------------------


def counterexample_records(violation: Violation) -> list[dict[str, object]]:
    """The violation's trace as flight-dump records.

    Format matches :meth:`repro.obs.flight.FlightRecorder.snapshot`: a
    ``flight-meta`` header then ``conn``-level provenance records, one
    per fired transition, so :func:`repro.obs.perfetto.journeys_to_trace`
    renders the counterexample on per-conversation lifecycle lanes.
    """
    conversations = len(violation.state.convs)
    records: list[dict[str, object]] = [
        {
            "kind": "flight-meta",
            "trigger": "modelcheck",
            "tag": violation.invariant,
            "seq": 0,
            "ring_size": len(violation.trace),
            "conversations": conversations,
            "records_seen": len(violation.trace),
            "message": violation.message,
        }
    ]
    for step_index, step in enumerate(violation.trace):
        transition = step.transition
        records.append(
            {
                "kind": "provenance",
                "t": float(step_index),
                "stage": transition.transition_id,
                "c_id": step.conv,
                "offset": 0,
                "length": 0,
                "gen": 0,
                "level": "conn",
                "fields": {
                    "transition": transition.transition_id,
                    "from": transition.src,
                    "to": transition.dst,
                    "event": transition.event,
                    "table_line": row_line(transition.transition_id),
                },
            }
        )
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


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.modelcheck",
        description="exhaustively model-check the declared connection lifecycle",
    )
    parser.add_argument("--conversations", type=int, default=2, help="conversations modelled")
    parser.add_argument("--pool-tokens", type=int, default=1, help="placement-budget pool size")
    parser.add_argument(
        "--placement-cap", type=int, default=2, help="placed-byte units per conversation"
    )
    parser.add_argument(
        "--tombstone-capacity", type=int, default=1, help="tombstone FIFO capacity"
    )
    parser.add_argument(
        "--counterexample",
        type=Path,
        metavar="DIR",
        help="directory for counterexample JSONL dumps on violation",
    )
    parser.add_argument(
        "--inject-resurrection",
        action="store_true",
        help="inject the tombstone-resurrection fault (demo / CI artifact check)",
    )
    args = parser.parse_args(argv)

    config = ModelConfig(
        conversations=args.conversations,
        pool_tokens=args.pool_tokens,
        placement_cap=args.placement_cap,
        tombstone_capacity=args.tombstone_capacity,
    )
    table = STATE_TABLE
    if args.inject_resurrection:
        table = with_transition(table, injected_resurrection())

    result = explore(table, config)
    uncovered = result.uncovered(table)
    print(
        f"modelcheck: {result.states_explored} states, {result.edges} edges, "
        f"{len(result.fired)}/{len(table.by_id)} transitions covered"
    )
    if uncovered:
        print(f"modelcheck: uncovered transitions: {', '.join(uncovered)}")
    if result.ok:
        print("modelcheck: all invariants hold on every reachable state")
        return 0
    for number, violation in enumerate(result.violations):
        print(
            f"modelcheck: VIOLATION [{violation.invariant}] {violation.message} "
            f"(trace length {len(violation.trace)})"
        )
        for step in violation.trace:
            transition = step.transition
            print(
                f"  conv {step.conv}: {transition.src} --{transition.event}--> "
                f"{transition.dst}  ({transition.transition_id})"
            )
        if args.counterexample is not None:
            path = args.counterexample / f"modelcheck-{number:03d}-{violation.invariant}.jsonl"
            write_counterexample(violation, path)
            print(f"  counterexample written to {path}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
