"""Property suite: random walks of the live endpoint follow the declared
lifecycle table.

:func:`repro.analysis.modelcheck.explore` reaches every state of the
bounded endpoint once, by its shortest path; these walks take the same
checked steps (:meth:`LiveEndpoint.step`) in long random sequences, so
a row is also checked deep into histories.  Each step checks the edge
both ways: where the table has a row, the endpoint lands where the row
says (state, receiver, budget, tombstones), refuses exactly on a
``refuse-*`` row under the right counter and does not raise on a local
call; where it has none, nothing moves.  Two conversations, one
admission token, a one-entry tombstone FIFO, all eight schedulable
events and the stray ACK; simulated time only, no unseeded randomness.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import ALPHABET, LiveEndpoint, ModelConfig
from repro.analysis.state_table import STATE_TABLE

#: Two conversations contending for one admission token, with a
#: tombstone FIFO the second eviction overflows.
CONFIG = ModelConfig(conversations=2, pool_tokens=1, tombstone_capacity=1)


def walk(offers) -> tuple[LiveEndpoint, set[str]]:
    """Step every offer, asserting each edge; returns the rows fired."""
    live = LiveEndpoint(CONFIG)
    fired: set[str] = set()
    for event, conv in offers:
        step, problems = live.step(event, conv)
        assert problems == [], (event, conv, problems)
        fired.update(transition.transition_id for _, transition in step.fired)
    return live, fired


def test_seeded_walks_fire_every_row_of_the_table():
    # The deterministic tier: a fixed stream of walks, every step checked
    # in both directions, which together must exercise the whole table.
    rng = random.Random(0x1993)
    fired: set[str] = set()
    for _ in range(400):
        fired |= walk(
            [(rng.choice(ALPHABET), rng.randrange(CONFIG.conversations)) for _ in range(14)]
        )[1]
    assert fired == set(STATE_TABLE.by_id), sorted(set(STATE_TABLE.by_id) - fired)


offers = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.integers(0, CONFIG.conversations - 1)),
    min_size=1,
    max_size=14,
)


@settings(max_examples=200, deadline=None)
@given(offers)
def test_model_accepted_sequences_drive_the_live_endpoint(sequence):
    walk(sequence)


@settings(max_examples=50, deadline=None)
@given(offers)
def test_refusal_counters_split_like_the_model(sequence):
    # Over a whole walk — rows and rowless offers alike — the endpoint's
    # two refusal tallies are what the table's states predict.
    live, _ = walk(sequence)
    assert live.endpoint.refused_unknown == live.expect_unknown
    assert live.endpoint.refused_evicted == live.expect_evicted
