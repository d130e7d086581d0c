"""Property suite: the declared lifecycle table and the live endpoint
are one automaton.

:mod:`repro.core.state_table` declares the connection FSM and
:mod:`repro.analysis.modelcheck` explores it; nothing in
:class:`~repro.transport.endpoint.ChunkEndpoint` points back at the
table.  The two are reconciled the only way two implementations of one
automaton can be — by feeding both the same events and comparing what
can be observed — and in both directions on every step:

- **model ⇒ live**: where the table has an enabled row for the event,
  the endpoint must land every conversation in the observable class of
  the row's destination, refuse the chunks exactly when the row is a
  ``refuse-*`` row (counted under the matching refusal kind), and accept
  a local call without raising;
- **live ⇒ model**: the event is offered where the table has *no* row
  too, and there the endpoint may not move any conversation to another
  class — an undeclared transition is caught by what it does, not by
  how its source is spelled.

Both sides are driven through their public surface: two conversations,
one admission token, a one-entry tombstone FIFO (so the overflow cascade
fires), and all eight schedulable events of the alphabet.  Time is the
event loop's, advanced a fixed step per event; no wall clock, no
unseeded randomness.

What this proves: agreement on *observable classes* (absent / open /
closing / evicted), on refusals, and on held budget tokens, over the
walks generated — the seeded tier is asserted to fire every row.  What
it does not: that two model states sharing a class (ESTABLISHING vs
ESTABLISHED, the three tombstone states) are told apart by the endpoint;
they are not, and the table does not claim it.

Driver restriction, with its reason: ``sweep`` and ``progress-police``
are endpoint-wide in the live endpoint (one clock, one ``sweep()``
call), so a timer event fires the model's row for *every* conversation
that has one enabled, in connection-table order — the order the endpoint
evicts in.  Interleavings where a timer reaches one conversation but not
another are explored by the model checker, not here.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import ModelConfig, apply_step, enabled, initial_state
from repro.core.errors import EndpointError
from repro.core.packet import Packet
from repro.core.state_table import EVENTS, STATE_TABLE, Transition
from repro.host.budget import SharedPlacementBudget
from repro.netsim.events import EventLoop
from repro.transport.acks import build_ack_chunk
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint, ConnectionState, ConnectionTable
from repro.transport.sender import ChunkTransportSender

from tests.conftest import make_chunk

CIDS = (9, 10)

#: Two conversations contending for one admission token, with a
#: tombstone FIFO the second eviction overflows.
MODEL = ModelConfig(
    conversations=len(CIDS), pool_tokens=1, placement_cap=2, tombstone_capacity=1
)

#: Every event something can schedule; ``tombstone-overflow`` only ever
#: fires as the cascade of a tombstoning row, in model and endpoint alike.
ALPHABET = tuple(event for event in EVENTS if event != "tombstone-overflow")
TIMER_EVENTS = ("sweep", "progress-police")
assert len(ALPHABET) == 8 and set(TIMER_EVENTS) < set(ALPHABET)

#: Simulated seconds per event.  A ``sweep`` jumps past the idle timeout
#: and the close linger, so every connection is due; every other event —
#: ``progress-police`` included — advances one progress window, so no walk
#: of this suite's lengths ever reaches the idle timeout by accident.
STEP = 1.0
IDLE = 1000.0

SHARE = 64 * 1024

#: Model lifecycle state -> the observable class a live endpoint shows.
OBSERVABLE = {
    "CLOSED": "absent",
    "ESTABLISHING": "open",
    "ESTABLISHED": "open",
    "CLOSING": "closing",
    "EVICTED-idle": "evicted",
    "EVICTED-stalled": "evicted",
    "TOMBSTONED": "evicted",
}


def _config(cid: int) -> ConnectionConfig:
    return ConnectionConfig(connection_id=cid, tpdu_units=16)


class Walk:
    """One live endpoint and one model state, stepped together."""

    def __init__(self) -> None:
        self.loop = EventLoop()
        self.endpoint = ChunkEndpoint(
            self.loop,
            transmit=lambda frame: None,
            budget=SharedPlacementBudget(
                pool_bytes=MODEL.pool_tokens * SHARE, min_share_bytes=SHARE
            ),
            table=ConnectionTable(tombstone_capacity=MODEL.tombstone_capacity),
            idle_timeout=IDLE,
            close_linger=IDLE,
            # No conversation here ever meets the floor: policing evicts
            # every established receiver session one window old.
            min_progress_bytes=1 << 30,
            progress_window=STEP,
        )
        self.peers = {cid: ChunkTransportSender(_config(cid)) for cid in CIDS}
        self.state = initial_state(MODEL)
        self.fired: set[str] = set()
        #: refused chunks the model files under each refusal kind.
        self.expect_unknown = 0
        self.expect_evicted = 0

    # -- observation ---------------------------------------------------

    def live_class(self, cid: int) -> str:
        connection = self.endpoint.connection(cid)
        if connection is not None:
            return "closing" if connection.state is ConnectionState.CLOSED else "open"
        return "evicted" if cid in self.endpoint.table.evicted_ids else "absent"

    def model_class(self, idx: int) -> str:
        return OBSERVABLE[self.state.convs[idx].state]

    # -- one event -----------------------------------------------------

    def _row(self, idx: int, event: str) -> Transition | None:
        rows = [
            t
            for i, t in enabled(self.state, STATE_TABLE, MODEL)
            if i == idx and t.event == event
        ]
        # Guards partition, so one conversation never has two rows
        # enabled for one event.
        assert len(rows) <= 1, rows
        return rows[0] if rows else None

    def _fire(self, idx: int, event: str) -> Transition | None:
        row = self._row(idx, event)
        if row is not None:
            self.state, steps = apply_step(self.state, idx, row, STATE_TABLE, MODEL)
            self.fired.update(step.transition.transition_id for step in steps)
        return row

    def _chunks(self, cid: int, event: str, row: Transition | None):
        if event == "signaling-chunk":
            if row is not None and "acquire-token" in row.effects:
                # A new receiver session: a fresh peer (C.SN from zero) feeds it.
                self.peers[cid] = ChunkTransportSender(_config(cid))
            return [self.peers[cid].establishment_chunk()]
        if event == "ack-chunk":
            return [build_ack_chunk(cid, [0])]
        closing = event == "cst-chunk"
        if row is not None and row.transition_id in ("data", "close"):
            return self.peers[cid].send_frame(b"\xa5" * 8, end_of_connection=closing)
        # Refused, or offered where the table has no row: any DATA chunk
        # of the conversation will do (the peer may already have closed).
        return [make_chunk(units=4, c_id=cid, c_st=closing)]

    def offer(self, event: str, idx: int) -> None:
        """Offer *event* to conversation *idx* (timer events reach all)."""
        cid = CIDS[idx]
        self.loop.schedule(IDLE if event == "sweep" else STEP, lambda: None)
        self.loop.run()

        endpoint = self.endpoint
        if event in TIMER_EVENTS:
            for cid_in_table in list(endpoint.table.connections):
                self._fire(CIDS.index(cid_in_table), event)
            endpoint.sweep()
        elif event in ("local-open", "local-close"):
            row = self._fire(idx, event)
            try:
                if event == "local-open":
                    endpoint.open_connection(_config(cid))
                else:
                    endpoint.close_connection(cid)
            except EndpointError:
                assert row is None, (event, row)
        else:
            row = self._fire(idx, event)
            chunks = self._chunks(cid, event, row)
            tombstoned = self.model_class(idx) == "evicted"  # refuse-admission: by now
            unknown, evicted = endpoint.refused_unknown, endpoint.refused_evicted
            refused = endpoint.receive_packet(Packet(chunks=chunks).encode()).refused_chunks
            if row is not None:
                # The model refuses exactly where the endpoint refuses.
                model_refuses = row.transition_id.startswith("refuse-")
                assert (refused == len(chunks)) == model_refuses, (event, row)
                assert refused in (0, len(chunks))
            # ... and every refusal is filed under the kind the model's
            # state says: tombstoned C.IDs as evicted, the rest as unknown.
            self.expect_evicted += refused if tombstoned else 0
            self.expect_unknown += 0 if tombstoned else refused
            assert endpoint.refused_unknown - unknown == (0 if tombstoned else refused)
            assert endpoint.refused_evicted - evicted == (refused if tombstoned else 0)

        # Both directions at once: with a row, every conversation shows
        # the class of where the model went (cascaded forgets included);
        # without one the model did not move, so neither may the endpoint.
        for other, other_cid in enumerate(CIDS):
            assert self.live_class(other_cid) == self.model_class(other), (
                event,
                cid,
                other_cid,
                self.state,
            )
        # A receiver session is a held budget token, on both sides.
        held = sum(conv.token for conv in self.state.convs)
        assert endpoint.budget.registered == held, (event, cid, self.state)
        assert held + self.state.tokens == MODEL.pool_tokens


def test_seeded_walks_fire_every_row_of_the_table():
    # The deterministic tier: a fixed stream of walks, every one checked
    # in both directions, which together must exercise the whole table.
    rng = random.Random(0x1993)
    fired: set[str] = set()
    for _ in range(400):
        walk = Walk()
        for _ in range(14):
            walk.offer(rng.choice(ALPHABET), rng.randrange(len(CIDS)))
        fired |= walk.fired
    assert fired == set(STATE_TABLE.by_id), sorted(set(STATE_TABLE.by_id) - fired)


offers = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.integers(0, len(CIDS) - 1)),
    min_size=1,
    max_size=14,
)


@settings(max_examples=200, deadline=None)
@given(offers)
def test_model_accepted_sequences_drive_the_live_endpoint(sequence):
    walk = Walk()
    for event, idx in sequence:
        walk.offer(event, idx)


@settings(max_examples=50, deadline=None)
@given(offers)
def test_refusal_counters_split_like_the_model(sequence):
    # Over a whole walk — rows and rowless offers alike — the endpoint's
    # two refusal tallies are what the model's states predict.
    walk = Walk()
    for event, idx in sequence:
        walk.offer(event, idx)
    assert walk.endpoint.refused_unknown == walk.expect_unknown
    assert walk.endpoint.refused_evicted == walk.expect_evicted
