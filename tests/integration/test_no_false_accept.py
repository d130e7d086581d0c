"""Safety property: the verifier never OKs a TPDU with wrong bytes.

This is the load-bearing guarantee behind the whole Section 4 design:
whatever bits get flipped in flight — header or payload, any field, any
count — a TPDU verdicted OK must deliver exactly the sender's bytes.
Hypothesis drives random corruption of random wire bytes across random
fragmentation schedules; any false accept is a reproduction-breaking
bug.  (False *rejects* are allowed: corruption may waste a TPDU, never
forge one.)
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.codec import decode_chunks, encode_chunk
from repro.core.errors import CodecError, ReproError
from repro.core.fragment import split_to_unit_limit
from repro.wsc.endtoend import EndToEndReceiver
from repro.wsc.invariant import encode_tpdu

from tests.helpers import make_payload

TPDU_UNITS = 16


def _tpdu(seed: int):
    builder = ChunkStreamBuilder(connection_id=3, tpdu_units=TPDU_UNITS)
    chunks = builder.add_frame(make_payload(TPDU_UNITS, seed=seed), frame_id=0)
    _, ed = encode_tpdu(chunks)
    return chunks, ed


@given(
    seed=st.integers(0, 50),
    limit=st.integers(1, 6),
    shuffle_seed=st.integers(0, 2**16),
    flips=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 7)),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=250, deadline=None)
def test_random_bit_flips_never_forge_a_tpdu(seed, limit, shuffle_seed, flips):
    chunks, ed = _tpdu(seed)
    original_payload = b"".join(c.payload for c in chunks)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, limit)] + [ed]
    random.Random(shuffle_seed).shuffle(pieces)

    # Serialize the whole delivery, flip bits anywhere in it.
    blob = bytearray(b"".join(encode_chunk(p) for p in pieces))
    for position, bit in flips:
        blob[position % len(blob)] ^= 1 << bit

    try:
        arrived = decode_chunks(bytes(blob))
    except CodecError:
        return  # whole delivery unparseable: trivially safe

    receiver = EndToEndReceiver()
    verdicts = []
    placements: dict[int, bytes] = {}
    for chunk in arrived:
        if chunk.is_data:
            for index in range(chunk.length):
                placements.setdefault(
                    chunk.t.sn + index,
                    chunk.unit(index),
                )
        try:
            verdicts += receiver.receive(chunk)
        except ReproError:
            return  # loud rejection is safe

    for verdict in verdicts:
        if verdict.ok and verdict.t_id == chunks[0].t.ident:
            # The verifier accepted: every unit it accounted must match
            # the sender's bytes exactly.
            got = b"".join(placements[i] for i in range(TPDU_UNITS))
            assert got == original_payload, "FALSE ACCEPT: corrupted TPDU verified OK"


@given(
    seed=st.integers(0, 50),
    limit=st.integers(1, 6),
    shuffle_seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_clean_delivery_always_accepts(seed, limit, shuffle_seed):
    """The dual guard: zero corruption must always verify (no false
    rejects on clean traffic, whatever the fragmentation/order)."""
    chunks, ed = _tpdu(seed)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, limit)] + [ed]
    random.Random(shuffle_seed).shuffle(pieces)
    receiver = EndToEndReceiver()
    verdicts = []
    for chunk in pieces:
        verdicts += receiver.receive(chunk)
    assert len(verdicts) == 1 and verdicts[0].ok
