"""The single source of truth for the connection-lifecycle state machine.

The paper's labelling discipline makes per-conversation state explicit
and finite — establishment on a SIGNALING chunk, close on C.ST,
eviction with tombstones — and
:class:`~repro.transport.endpoint.ChunkEndpoint` implements it.  This
module declares that automaton once, as :class:`Transition` rows; no
transfer module imports it and nothing in the endpoint points back at
it.  :mod:`repro.analysis.modelcheck` runs it against a live endpoint.
``docs/architecture.md`` embeds it as a generated table and mermaid
diagram, which ``tests/test_docs_blocks.py`` holds to these rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

__all__ = [
    "Transition",
    "StateTable",
    "STATES",
    "INITIAL_STATE",
    "STATE_TABLE",
    "row_line",
]

#: Lifecycle states.  ``EVICTED-idle`` covers both sweep reasons (idle
#: timeout and close-linger) because they share every downstream
#: behaviour: tombstoned, refusable, forgettable on overflow.
CLOSED = "CLOSED"
ESTABLISHING = "ESTABLISHING"
ESTABLISHED = "ESTABLISHED"
CLOSING = "CLOSING"
EVICTED_IDLE = "EVICTED-idle"
EVICTED_STALLED = "EVICTED-stalled"
TOMBSTONED = "TOMBSTONED"

STATES: tuple[str, ...] = (
    CLOSED,
    ESTABLISHING,
    ESTABLISHED,
    CLOSING,
    EVICTED_IDLE,
    EVICTED_STALLED,
    TOMBSTONED,
)

INITIAL_STATE = CLOSED

#: The event alphabet.  Wire events carry a chunk kind; ``local-*`` are
#: API calls on the endpoint; ``sweep`` / ``progress-police`` are timer
#: driven; ``tombstone-overflow`` is the FIFO drop in BoundedSet.
EVENTS: tuple[str, ...] = (
    "signaling-chunk",
    "data-chunk",
    "ack-chunk",
    "cst-chunk",
    "local-open",
    "local-close",
    "sweep",
    "progress-police",
    "tombstone-overflow",
)

#: Guards, each read off the live endpoint.  A receiver session *is* a
#: held budget token (the endpoint admits one exactly when it attaches
#: the other), so the pool guards read ``budget.registered`` and the
#: role guards the conversation's receiver: ``has-receiver`` = one
#: attached, ``receiver-admissible`` = none attached and the pool can
#: promise one.  ``acks-sent-tpdu``: the ACK names a TPDU the
#: conversation's sender session is timing (a stray ACK moves nothing).
#: Nothing here counts bytes: acknowledgment against verification is
#: checked on every ACK the endpoint transmits.
GUARDS: tuple[str, ...] = (
    "",
    "pool-has-token",
    "pool-exhausted",
    "has-receiver",
    "receiver-admissible",
    "acks-sent-tpdu",
)

#: Effects, each an observable delta of the endpoint: a budget key
#: registered or released with a receiver session, a C.ID appended to
#: the tombstone FIFO, a forgotten C.ID leaving it.
EFFECTS: tuple[str, ...] = (
    "acquire-token",
    "release-token",
    "tombstone",
    "reset-conversation",
)


@dataclass(frozen=True)
class Transition:
    """One declared lifecycle transition.

    Attributes:
        transition_id: stable kebab-case id, referenced by the
            lifecycle checker and its counterexample traces.
        src: source state (one of :data:`STATES`).
        event: triggering event (one of :data:`EVENTS`).
        dst: destination state.
        guard: predicate gating the transition ("" = always enabled).
        effects: the endpoint deltas the row promises (:data:`EFFECTS`).
        notes: one-line rationale for the docs table.
    """

    transition_id: str
    src: str
    event: str
    dst: str
    guard: str = ""
    effects: tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if self.src not in STATES:
            raise ValueError(f"{self.transition_id}: unknown src state {self.src!r}")
        if self.dst not in STATES:
            raise ValueError(f"{self.transition_id}: unknown dst state {self.dst!r}")
        if self.event not in EVENTS:
            raise ValueError(f"{self.transition_id}: unknown event {self.event!r}")
        if self.guard not in GUARDS:
            raise ValueError(f"{self.transition_id}: unknown guard {self.guard!r}")
        for effect in self.effects:
            if effect not in EFFECTS:
                raise ValueError(f"{self.transition_id}: unknown effect {effect!r}")


@dataclass(frozen=True)
class StateTable:
    """The declared lifecycle FSM: states plus the transition relation."""

    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    by_id: dict[str, Transition] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not in states")
        seen: dict[str, Transition] = {}
        for transition in self.transitions:
            if transition.transition_id in seen:
                raise ValueError(f"duplicate transition id {transition.transition_id!r}")
            seen[transition.transition_id] = transition
        object.__setattr__(self, "by_id", seen)

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.src == state)

    def validate(self) -> list[str]:
        """Structural FSM problems: unreachable states, dead ends,
        unguarded nondeterminism, as human-readable strings.
        """
        problems: list[str] = []
        reachable = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for transition in self.outgoing(state):
                if transition.dst not in reachable:
                    reachable.add(transition.dst)
                    frontier.append(transition.dst)
        for state in self.states:
            if state not in reachable:
                problems.append(f"state {state} is unreachable from {self.initial}")
            elif not self.outgoing(state):
                problems.append(f"state {state} is a dead end (no outgoing transition)")
        unguarded: dict[tuple[str, str], str] = {}
        for transition in self.transitions:
            key = (transition.src, transition.event)
            if transition.guard == "":
                if key in unguarded:
                    problems.append(
                        f"transitions {unguarded[key]} and {transition.transition_id} "
                        f"are both unguarded on ({transition.src}, {transition.event})"
                    )
                else:
                    unguarded[key] = transition.transition_id
        return problems


STATE_TABLE = StateTable(
    states=STATES,
    initial=INITIAL_STATE,
    transitions=(
        Transition(
            "open-local",
            CLOSED,
            "local-open",
            ESTABLISHING,
            notes="sender side; resignals SIGNALING until first ack",
        ),
        Transition(
            "establish",
            CLOSED,
            "signaling-chunk",
            ESTABLISHED,
            guard="pool-has-token",
            effects=("acquire-token",),
            notes="receiver side; strict SIGNALING parse, budget token held",
        ),
        Transition(
            "refuse-admission",
            CLOSED,
            "signaling-chunk",
            TOMBSTONED,
            guard="pool-exhausted",
            effects=("tombstone",),
            notes="admission control: refusal is remembered as a tombstone",
        ),
        Transition(
            "establish-acked",
            ESTABLISHING,
            "ack-chunk",
            ESTABLISHED,
            guard="acks-sent-tpdu",
            notes="first ack of a sent TPDU stops SIGNALING resends; still sender-only",
        ),
        Transition(
            "attach-early",
            ESTABLISHING,
            "signaling-chunk",
            ESTABLISHED,
            guard="pool-has-token",
            effects=("acquire-token",),
            notes="the peer signalled before it acked: receiver session attached",
        ),
        Transition(
            "attach",
            ESTABLISHED,
            "signaling-chunk",
            ESTABLISHED,
            guard="receiver-admissible",
            effects=("acquire-token",),
            notes="receiver session attached to a sender-only conversation",
        ),
        Transition(
            "data",
            ESTABLISHED,
            "data-chunk",
            ESTABLISHED,
            guard="has-receiver",
            notes="label-routed placement; self-loop (sender-only: refused)",
        ),
        Transition(
            "ack-data",
            ESTABLISHED,
            "ack-chunk",
            ESTABLISHED,
            notes="self-loop; an ACK the endpoint sends names only verified TPDUs",
        ),
        Transition(
            "close",
            ESTABLISHED,
            "cst-chunk",
            CLOSING,
            guard="has-receiver",
            notes="C.ST placed by the receiver session; entry lingers for close-linger",
        ),
        Transition(
            "close-local",
            ESTABLISHING,
            "local-close",
            CLOSING,
            notes="local close before the peer ever acked",
        ),
        Transition(
            "close-local-established",
            ESTABLISHED,
            "local-close",
            CLOSING,
            notes="local close of an established conversation, either role",
        ),
        Transition(
            "evict-unacked",
            ESTABLISHING,
            "sweep",
            EVICTED_IDLE,
            effects=("tombstone",),
            notes="idle timeout with nothing outstanding and no ack ever seen",
        ),
        Transition(
            "evict-idle",
            ESTABLISHED,
            "sweep",
            EVICTED_IDLE,
            effects=("release-token", "tombstone"),
            notes="idle timeout; token returned, C.ID tombstoned",
        ),
        Transition(
            "evict-closed",
            CLOSING,
            "sweep",
            EVICTED_IDLE,
            effects=("release-token", "tombstone"),
            notes="close-linger expiry; same eviction path as idle",
        ),
        Transition(
            "evict-stalled",
            ESTABLISHED,
            "progress-police",
            EVICTED_STALLED,
            guard="has-receiver",
            effects=("release-token", "tombstone"),
            notes="slow-loris defence: the receiver session missed the progress floor",
        ),
        Transition(
            "refuse-evicted-idle",
            EVICTED_IDLE,
            "data-chunk",
            EVICTED_IDLE,
            notes="late traffic after idle eviction is refused, not routed",
        ),
        Transition(
            "refuse-evicted-stalled",
            EVICTED_STALLED,
            "data-chunk",
            EVICTED_STALLED,
            notes="late traffic after stall eviction is refused, not routed",
        ),
        Transition(
            "refuse-tombstoned",
            TOMBSTONED,
            "data-chunk",
            TOMBSTONED,
            notes="traffic for an admission-refused C.ID stays refused",
        ),
        Transition(
            "refuse-unknown",
            CLOSED,
            "data-chunk",
            CLOSED,
            notes="data for a C.ID that was never established",
        ),
        Transition(
            "forget-idle",
            EVICTED_IDLE,
            "tombstone-overflow",
            CLOSED,
            effects=("reset-conversation",),
            notes="FIFO tombstone drop; refusals degrade to refused_unknown",
        ),
        Transition(
            "forget-stalled",
            EVICTED_STALLED,
            "tombstone-overflow",
            CLOSED,
            effects=("reset-conversation",),
            notes="FIFO tombstone drop for a stall-evicted C.ID",
        ),
        Transition(
            "forget-refused",
            TOMBSTONED,
            "tombstone-overflow",
            CLOSED,
            effects=("reset-conversation",),
            notes="FIFO tombstone drop for an admission-refused C.ID",
        ),
    ),
)

# The declared FSM must itself be sound: every state reachable, no dead
# ends, no unguarded nondeterminism.  If this fires, the authoritative
# table has drifted from its own rules.
assert STATE_TABLE.validate() == []


@lru_cache(maxsize=1)
def _source_lines() -> tuple[str, ...]:
    return tuple(Path(__file__).read_text(encoding="utf-8").splitlines())


def row_line(transition_id: str) -> int:
    """1-based line of a transition's declaration in this file.

    Used by the lifecycle checker so counterexamples carry a clickable
    ``file:line`` of the table row.
    """
    needle = f'"{transition_id}"'
    for number, line in enumerate(_source_lines(), start=1):
        if needle in line:
            return number
    return 1
