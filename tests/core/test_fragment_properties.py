"""Property-based tests: fragmentation/reassembly invariants.

The paper's central structural claim — "chunks preserve all of their
properties under fragmentation" and reassemble in one step regardless of
the fragmentation schedule — is exactly the kind of statement hypothesis
is for.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunk import Chunk
from repro.core.fragment import split, split_to_unit_limit
from repro.core.reassemble import coalesce, merge
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType

from tests.helpers import make_payload


@st.composite
def chunks(draw, max_units: int = 64, max_size: int = 4) -> Chunk:
    units = draw(st.integers(1, max_units))
    size = draw(st.integers(1, max_size))
    return Chunk(
        type=ChunkType.DATA,
        size=size,
        length=units,
        c=FramingTuple(
            draw(st.integers(0, 2**16)), draw(st.integers(0, 2**24)),
            draw(st.booleans()),
        ),
        t=FramingTuple(
            draw(st.integers(0, 2**16)), draw(st.integers(0, 2**14)),
            draw(st.booleans()),
        ),
        x=FramingTuple(
            draw(st.integers(0, 2**16)), draw(st.integers(0, 2**24)),
            draw(st.booleans()),
        ),
        payload=make_payload(units, size, seed=draw(st.integers(0, 1000))),
    )


@st.composite
def chunk_and_cut(draw):
    chunk = draw(chunks(max_units=64))
    if chunk.length < 2:
        return chunk, None
    return chunk, draw(st.integers(1, chunk.length - 1))


@given(chunk_and_cut())
def test_split_merge_roundtrip(pair):
    chunk, cut = pair
    if cut is None:
        return
    a, b = split(chunk, cut)
    assert merge(a, b) == chunk


@given(chunk_and_cut())
def test_split_partitions_every_field_correctly(pair):
    chunk, cut = pair
    if cut is None:
        return
    a, b = split(chunk, cut)
    assert a.length + b.length == chunk.length
    assert a.payload + b.payload == chunk.payload
    for level in "ctx":
        at, bt, orig = a.tuple_for(level), b.tuple_for(level), chunk.tuple_for(level)
        assert at.ident == bt.ident == orig.ident
        assert at.sn == orig.sn
        assert bt.sn == orig.sn + cut
        assert at.st is False
        assert bt.st == orig.st


@given(chunks(max_units=48), st.integers(1, 7), st.integers(0, 2**32))
@settings(max_examples=60)
def test_coalesce_inverts_any_unit_limit_split(chunk, limit, shuffle_seed):
    pieces = split_to_unit_limit(chunk, limit)
    random.Random(shuffle_seed).shuffle(pieces)
    assert coalesce(pieces) == [chunk]


@given(chunks(max_units=40), st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.integers(0, 2**32))
@settings(max_examples=60)
def test_coalesce_inverts_multistage_fragmentation(chunk, limits, shuffle_seed):
    """However many fragmentation stages occur, one coalesce recovers
    the original chunk (the CLAIM-1STEP property)."""
    pieces = [chunk]
    for limit in limits:
        pieces = [p for piece in pieces for p in split_to_unit_limit(piece, limit)]
    random.Random(shuffle_seed).shuffle(pieces)
    assert coalesce(pieces) == [chunk]


@given(chunks(max_units=40), st.integers(1, 6), st.integers(0, 2**32),
       st.data())
@settings(max_examples=60)
def test_coalesce_tolerates_duplicates(chunk, limit, shuffle_seed, data):
    """Retransmitted fragments with original identifiers never corrupt
    the reassembled result (Section 3.3 duplicate handling)."""
    pieces = split_to_unit_limit(chunk, limit)
    extras = data.draw(
        st.lists(st.sampled_from(pieces), min_size=0, max_size=4)
    )
    pool = pieces + extras
    random.Random(shuffle_seed).shuffle(pool)
    assert coalesce(pool) == [chunk]


@given(chunks(max_units=64))
def test_fragment_pieces_stay_structurally_valid(chunk):
    if chunk.length < 2:
        return
    for piece in split_to_unit_limit(chunk, 1):
        # Construction re-runs all Chunk invariants; also check payload
        # linkage explicitly.
        assert piece.length == 1
        assert piece.payload == chunk.payload[
            (piece.t.sn - chunk.t.sn) * chunk.unit_bytes :
            (piece.t.sn - chunk.t.sn + 1) * chunk.unit_bytes
        ]
