"""The single source of truth for the connection-lifecycle state machine.

The paper's labelling discipline makes per-conversation state explicit
and finite — establishment on a SIGNALING chunk, close on C.ST,
eviction with tombstones — but until now that FSM lived implicitly in
:class:`~repro.transport.endpoint.ChunkEndpoint` /
:class:`~repro.transport.endpoint.ConnectionTable` code paths.  This
module is the one authoritative copy: every lifecycle state and every
transition as a :class:`Transition` row, with the markdown table, the
mermaid diagram, and the model checker's transition relation *derived*
from it.

Consumers:

- ``tests/properties/test_lifecycle_conformance.py`` runs the table
  against a live :class:`~repro.transport.endpoint.ChunkEndpoint`: every
  row is fired on the endpoint (same observable lifecycle class,
  refusals exactly where a ``refuse-*`` row says), and every event is
  also offered where the table has *no* row, where the endpoint may not
  change a conversation's class.  Nothing in the code points back at
  the table; the two are reconciled by feeding both the same events.
- :mod:`repro.analysis.modelcheck` exhaustively enumerates event
  interleavings over exactly this transition relation and checks the
  PR 7 invariants as temporal properties.
- ``docs/architecture.md`` embeds the rendered table + diagram between
  ``<!-- state-table:begin -->`` / ``<!-- state-table:end -->``
  markers; ``python -m repro.analysis state-table --write`` regenerates
  the block, ``--check`` (CI, and ``tests/core/test_state_table.py``)
  fails when it is stale.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Sequence

__all__ = [
    "Transition",
    "StateTable",
    "STATES",
    "INITIAL_STATE",
    "STATE_TABLE",
    "BLOCK_BEGIN",
    "BLOCK_END",
    "render_markdown",
    "render_mermaid",
    "docs_block",
    "extract_block",
    "table_path",
    "row_line",
    "main",
]

BLOCK_BEGIN = "<!-- state-table:begin -->"
BLOCK_END = "<!-- state-table:end -->"

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

#: Guards the model checker knows how to evaluate.  A receiver session
#: *is* a held budget token (the endpoint admits one exactly when it
#: attaches the other), so the role guards read the token bit:
#: ``has-receiver`` = token held, ``receiver-admissible`` = none held
#: and the pool can promise one.
GUARDS: tuple[str, ...] = (
    "",
    "pool-has-token",
    "pool-exhausted",
    "acked-below-placed",
    "has-receiver",
    "receiver-admissible",
)

#: Effects the model checker knows how to apply, in application order.
EFFECTS: tuple[str, ...] = (
    "acquire-token",
    "release-token",
    "tombstone",
    "place-bytes",
    "ack-bytes",
    "reset-conversation",
)


@dataclass(frozen=True)
class Transition:
    """One declared lifecycle transition.

    Attributes:
        transition_id: stable kebab-case id, referenced by the
            conformance property and counterexample traces.
        src: source state (one of :data:`STATES`).
        event: triggering event (one of :data:`EVENTS`).
        dst: destination state.
        guard: predicate gating the transition ("" = always enabled).
        effects: state-mutation effects, applied in :data:`EFFECTS`
            order by the model checker.
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
            notes="first ack stops SIGNALING resends; still sender-only",
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
            effects=("place-bytes",),
            notes="label-routed placement; self-loop (sender-only: refused)",
        ),
        Transition(
            "ack-data",
            ESTABLISHED,
            "ack-chunk",
            ESTABLISHED,
            guard="acked-below-placed",
            effects=("ack-bytes",),
            notes="acks may never outrun placement (PR 7 invariant)",
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


def render_markdown(table: StateTable = STATE_TABLE) -> str:
    """The transition relation as GitHub markdown (deterministic)."""
    lines = [
        f"### Connection lifecycle — {len(table.states)} states, "
        f"{len(table.transitions)} transitions",
        "",
        "| id | from | event | to | guard | effects | notes |",
        "|---|---|---|---|---|---|---|",
    ]
    for t in table.transitions:
        effects = ", ".join(t.effects) if t.effects else "—"
        guard = t.guard or "—"
        lines.append(
            f"| `{t.transition_id}` | {t.src} | {t.event} | {t.dst} "
            f"| {guard} | {effects} | {t.notes} |"
        )
    return "\n".join(lines)


def _mermaid_alias(state: str) -> str:
    return state.replace("-", "_")


def render_mermaid(table: StateTable = STATE_TABLE) -> str:
    """The FSM as a mermaid ``stateDiagram-v2`` (deterministic)."""
    lines = ["stateDiagram-v2"]
    for state in table.states:
        alias = _mermaid_alias(state)
        if alias != state:
            lines.append(f'    state "{state}" as {alias}')
    lines.append(f"    [*] --> {_mermaid_alias(table.initial)}")
    for t in table.transitions:
        label = t.event if not t.guard else f"{t.event} [{t.guard}]"
        lines.append(
            f"    {_mermaid_alias(t.src)} --> {_mermaid_alias(t.dst)}: {label}"
        )
    return "\n".join(lines)


def docs_block(table: StateTable = STATE_TABLE) -> str:
    """The full generated block, marker lines included."""
    parts = [
        BLOCK_BEGIN,
        "<!-- Generated by `python -m repro.analysis state-table --write`;",
        "     `--check` and the lifecycle conformance property hold it. Do not edit. -->",
        "",
        render_markdown(table),
        "",
        "```mermaid",
        render_mermaid(table),
        "```",
        "",
        BLOCK_END,
    ]
    return "\n".join(parts)


def _splice(text: str, block: str) -> str:
    """Replace (or append) the generated block inside *text*."""
    begin = text.find(BLOCK_BEGIN)
    end = text.find(BLOCK_END)
    if begin != -1 and end != -1 and end > begin:
        return text[:begin] + block + text[end + len(BLOCK_END):]
    suffix = "" if text.endswith("\n") else "\n"
    return text + suffix + "\n## The connection lifecycle (generated)\n\n" + block + "\n"


def extract_block(text: str) -> str | None:
    """The committed generated block of a docs file, or None."""
    begin = text.find(BLOCK_BEGIN)
    end = text.find(BLOCK_END)
    if begin == -1 or end == -1 or end < begin:
        return None
    return text[begin:end + len(BLOCK_END)]


def table_path() -> Path:
    """Where the authoritative table lives."""
    return Path(__file__)


@lru_cache(maxsize=1)
def _source_lines() -> tuple[str, ...]:
    return tuple(table_path().read_text(encoding="utf-8").splitlines())


def row_line(transition_id: str) -> int:
    """1-based line of a transition's declaration in this file.

    Used by the model checker so counterexamples carry a clickable
    ``file:line`` of the table row.
    """
    needle = f'"{transition_id}"'
    for number, line in enumerate(_source_lines(), start=1):
        if needle in line:
            return number
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis state-table",
        description="render / refresh the generated lifecycle state-machine block",
    )
    parser.add_argument(
        "--docs",
        type=Path,
        default=Path("docs") / "architecture.md",
        help="docs file carrying the generated block",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite the generated block in --docs (default: print it)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the committed block is stale",
    )
    args = parser.parse_args(argv)
    block = docs_block()
    if args.check:
        committed = extract_block(args.docs.read_text(encoding="utf-8"))
        if committed != block:
            print(f"state-table: generated block in {args.docs} is stale", file=sys.stderr)
            return 1
        print(f"state-table: {args.docs} is up to date")
        return 0
    if args.write:
        text = args.docs.read_text(encoding="utf-8")
        args.docs.write_text(_splice(text, block), encoding="utf-8")
        print(f"state-table: wrote generated block to {args.docs}")
        return 0
    print(block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
