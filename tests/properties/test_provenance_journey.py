"""Property suite: provenance journeys are complete, causal, and
losslessly exportable.

The paper's label is the join key for observability — so three
properties must hold for *any* seeded transfer and any record stream:

- **conservation**: every delivered byte was placed by exactly one
  ``placed`` record, and the placed labels tile the payload exactly
  (no byte placed twice, none skipped);
- **causality**: each chunk's journey is monotone in simulated time,
  and begins with its formation at the sender;
- **losslessness**: the Perfetto export round-trips — parsing the
  exported trace reconstructs each chunk's exact stage sequence.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.obs.perfetto import chunk_timelines, journeys_to_trace, parse_trace
from repro.obs.provenance import (
    CHUNK_STAGES,
    JourneyTracker,
    bind_journey_clock,
    journey_session,
)
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint

from tests.helpers import deterministic_bytes


def _transfer(seed: int, loss: float, nbytes: int):
    loop = EventLoop()
    bind_journey_clock(lambda: loop.now)
    sender = ChunkEndpoint(loop, mtu=1500)
    receiver = ChunkEndpoint(loop, mtu=1500)
    forward = Link(
        loop,
        receiver.receive_packet,
        rate_bps=622e6,
        delay=0.0005,
        loss_rate=loss,
        rng=substream(seed, "journey-prop", "forward"),
    )
    reverse = Link(
        loop,
        sender.receive_packet,
        rate_bps=622e6,
        delay=0.0005,
        rng=substream(seed, "journey-prop", "reverse"),
    )
    sender.transmit = forward.send
    receiver.transmit = reverse.send
    connection = sender.open_connection(ConnectionConfig(connection_id=5))
    payload = deterministic_bytes(nbytes, seed)
    connection.send_frame(payload, end_of_connection=True)
    loop.run()
    return receiver, payload


transfers = st.tuples(
    st.integers(0, 2**16),          # seed
    st.sampled_from([0.0, 0.05, 0.2]),  # loss rate
    st.sampled_from([512, 4096, 16384]),  # object size
)


@given(transfers)
@settings(max_examples=15, deadline=None)
def test_delivered_bytes_placed_exactly_once(params):
    seed, loss, nbytes = params
    with journey_session() as tracker:
        receiver, payload = _transfer(seed, loss, nbytes)
        assert receiver.connection(5).stream_bytes() == payload
        journeys = tracker.journeys(c_id=5)
        assert journeys
        placed: list[tuple[int, int]] = []
        for journey in journeys:
            assert journey.stages.count("placed") == 1, (
                f"{journey.key}: placed {journey.stages.count('placed')} "
                f"times in {journey.stages}"
            )
            placed.append((journey.offset, journey.length))
        # The placed labels tile the payload: no gap, no double-place.
        cursor = 0
        for offset, length in sorted(placed):
            assert offset == cursor, f"gap or overlap at byte {cursor}"
            cursor += length
        assert cursor == len(payload)


@given(transfers)
@settings(max_examples=15, deadline=None)
def test_journeys_causally_ordered(params):
    seed, loss, nbytes = params
    with journey_session() as tracker:
        receiver, payload = _transfer(seed, loss, nbytes)
        assert receiver.connection(5).stream_bytes() == payload
        for journey in tracker.journeys(c_id=5):
            times = [record.t for record in journey.records]
            assert times == sorted(times), (
                f"{journey.key}: non-monotone journey {list(zip(journey.stages, times))}"
            )
            assert journey.stages[0] == "formed"
            assert all(math.isfinite(t) and t >= 0 for t in times)
            # Retransmission generations strictly increase: each sender
            # retry is a fresh generation.  (Receiver-side records carry
            # gen=0 — the generation is sender state, not on the wire.)
            retry_gens = [
                record.gen
                for record in journey.records
                if record.stage == "retransmit"
            ]
            assert retry_gens == sorted(set(retry_gens))
            assert all(gen > 0 for gen in retry_gens)


@given(transfers)
@settings(max_examples=10, deadline=None)
def test_transfer_trace_round_trips(params):
    seed, loss, nbytes = params
    with journey_session() as tracker:
        receiver, payload = _transfer(seed, loss, nbytes)
        assert receiver.connection(5).stream_bytes() == payload
        trace = journeys_to_trace(tracker.records)
        timelines = chunk_timelines(trace)
        assert set(timelines) == set(tracker.keys())
        for key, timeline in timelines.items():
            journey = tracker.journey(*key)
            assert [stage for _, stage, _ in timeline] == journey.stages
            assert [gen for _, _, gen in timeline] == [
                record.gen for record in journey.records
            ]


# ----------------------------------------------------------------------
# Synthetic record streams: the export is lossless for any stage
# vocabulary, not just sequences a real transfer happens to produce.
# ----------------------------------------------------------------------

@st.composite
def record_streams(draw):
    """A tracker fed a random but causally-plausible record stream."""
    tracker = JourneyTracker()
    n_chunks = draw(st.integers(1, 5))
    for index in range(n_chunks):
        c_id = draw(st.sampled_from([1, 2]))
        offset, length = index * 64, 64
        stages = draw(
            st.lists(st.sampled_from(CHUNK_STAGES), min_size=1, max_size=6)
        )
        deltas = draw(
            st.lists(
                st.floats(0.001, 1.0, allow_nan=False),
                min_size=len(stages),
                max_size=len(stages),
            )
        )
        t, gen = 0.0, 0
        for stage, delta in zip(stages, deltas):
            t += delta
            if stage == "retransmit":
                gen += 1
            tracker.emit(stage, c_id, offset, length, t=t, gen=gen)
    return tracker


@given(record_streams())
@settings(deadline=None)
def test_synthetic_stream_round_trips(tracker):
    trace = journeys_to_trace(tracker.records)
    parse_trace(trace)  # structurally valid
    timelines = chunk_timelines(trace)
    assert set(timelines) == set(tracker.keys())
    for key, timeline in timelines.items():
        journey = tracker.journey(*key)
        assert [stage for _, stage, _ in timeline] == journey.stages
        assert [gen for _, _, gen in timeline] == [
            record.gen for record in journey.records
        ]
        for (t_out, _, _), record in zip(timeline, journey.records):
            assert abs(t_out - record.t) < 1e-9
