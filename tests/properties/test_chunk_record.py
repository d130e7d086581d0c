"""The flat chunk record: fast maker == validating constructor.

``Chunk._make`` validates nothing, so every site that uses it —
``decode_chunk``, ``split``, ``split_to_unit_limit``, ``merge``,
``ChunkStreamBuilder.add_frame`` and ``build_ed_chunk`` — must only ever
produce what the public constructor would have accepted.  These properties rebuild each
result through ``Chunk(type=, size=, length=, c=, t=, x=, payload=)``
from its views and demand the same record back, over labels drawn from
the whole width of every header field (the top of the SN field
included, where Appendix C arithmetic can leave it).

They also pin what the record inherited from the frozen dataclass it
replaced, and hold the one-pass ``split_to_unit_limit`` to the oracle:
Appendix C's two-way ``split``, repeated.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.codec import decode_chunk, encode_chunk
from repro.core.errors import ChunkError, CodecError, FragmentationError
from repro.core.fragment import split, split_to_unit_limit
from repro.core.reassemble import can_merge, merge
from repro.core.tuples import FramingTuple
from repro.core.types import ID_LIMIT, LEN_LIMIT, SIZE_LIMIT, SN_LIMIT, ChunkType
from repro.wsc.invariant import EdPayload, build_ed_chunk, parse_ed_chunk

from tests.conftest import make_payload

ids = st.integers(0, ID_LIMIT - 1)
#: SNs crowd the ends of the field: zero, ordinary, and within reach of 2**64.
sns = st.one_of(
    st.integers(0, 2**20), st.integers(SN_LIMIT - 200, SN_LIMIT - 1), st.integers(0, SN_LIMIT - 1)
)
labels = st.builds(FramingTuple, ids, sns, st.booleans())


@st.composite
def data_chunks(draw, max_units: int = 48) -> Chunk:
    units, size = draw(st.integers(1, max_units)), draw(st.integers(1, 4))
    return Chunk(
        type=ChunkType.DATA, size=size, length=units,
        c=draw(labels), t=draw(labels), x=draw(labels),
        payload=make_payload(units, size, seed=draw(st.integers(0, 50))),
    )


@st.composite
def any_chunks(draw) -> Chunk:
    if draw(st.booleans()):
        return draw(data_chunks())
    words = draw(st.integers(1, 8))
    return Chunk(
        type=draw(st.sampled_from([t for t in ChunkType if t is not ChunkType.DATA])),
        size=draw(st.integers(1, 4)), length=words,
        c=draw(labels), t=draw(labels), x=draw(labels), payload=make_payload(words),
    )


def assert_constructible(chunk: Chunk) -> None:
    """*chunk* is what the validating constructor makes of its own views."""
    rebuilt = Chunk(
        type=chunk.type, size=chunk.size, length=chunk.length,
        c=chunk.c, t=chunk.t, x=chunk.x, payload=chunk.payload,
    )
    assert rebuilt == chunk and hash(rebuilt) == hash(chunk)
    assert [type(f) for f in rebuilt] == [type(f) for f in chunk]  # bools stay bools
    assert decode_chunk(encode_chunk(chunk)) == (chunk, chunk.wire_bytes)  # ... and it encodes


# ----------------------------------------------------------------------
# The unvalidated-maker sites
# ----------------------------------------------------------------------


@given(
    st.integers(1, 5), st.integers(0, 7), st.integers(1, 6), st.integers(1, 12),
    ids, sns, ids, sns, ids, sns,
)
def test_decode_chunk_makes_constructible_records(
    raw_type, flags, size, length, c_id, c_sn, t_id, t_sn, x_id, x_sn
):
    unit = size * 4 if raw_type == ChunkType.DATA else 4
    wire = struct.pack(">BBHIIQIQIQ", raw_type, flags, size, length,
                       c_id, c_sn, t_id, t_sn, x_id, x_sn) + make_payload(length * unit // 4)
    chunk, end = decode_chunk(wire)
    assert end == len(wire)
    assert_constructible(chunk)
    assert encode_chunk(chunk) == wire
    assert (chunk.c, chunk.t, chunk.x) == (
        FramingTuple(c_id, c_sn, bool(flags & 1)),
        FramingTuple(t_id, t_sn, bool(flags & 2)),
        FramingTuple(x_id, x_sn, bool(flags & 4)),
    )


@given(any_chunks(), st.integers(6, 255), st.integers(0, 64))
def test_hostile_headers_still_raise_the_same_codec_errors(chunk, bad_type, keep):
    wire = encode_chunk(chunk)
    with pytest.raises(CodecError, match=f"unknown chunk TYPE {bad_type:#x} at offset 0"):
        decode_chunk(bytes([bad_type]) + wire[1:])
    with pytest.raises(CodecError, match="SIZE=0 in non-sentinel chunk at offset 0"):
        decode_chunk(wire[:2] + b"\x00\x00" + wire[4:])
    short = wire[: 44 + min(keep, chunk.payload_bytes - 1)]
    with pytest.raises(CodecError, match="truncated chunk payload: need"):
        decode_chunk(short)
    assert decode_chunk(b"\x00" + wire[1:]) == (None, 44)  # TYPE=0 is the sentinel
    assert decode_chunk(wire[:4] + b"\x00" * 4 + wire[8:]) == (None, 44)  # and so is LEN=0


def _repeated_split(chunk: Chunk, max_units: int) -> list[Chunk]:
    """Appendix C verbatim, repeated: the definition of the one-pass cut."""
    pieces, rest = [], chunk
    while rest.length > max_units:
        head, rest = split(rest, max_units)
        pieces.append(head)
    return pieces + [rest]


@given(any_chunks(), st.integers(1, 50))
def test_one_pass_cut_equals_repeated_split(chunk, max_units):
    try:
        expected = _repeated_split(chunk, max_units)
    except FragmentationError:
        with pytest.raises(FragmentationError):
            split_to_unit_limit(chunk, max_units)
        return
    pieces = split_to_unit_limit(chunk, max_units)
    assert pieces == expected
    assert [type(f) for p in pieces for f in p] == [type(f) for p in expected for f in p]
    for piece in pieces:
        assert_constructible(piece)


@given(data_chunks(), st.data())
def test_split_and_merge_make_constructible_records(chunk, data):
    if chunk.length < 2:
        return
    cut = data.draw(st.integers(1, chunk.length - 1))
    if max(chunk.c_sn, chunk.t_sn, chunk.x_sn) + cut >= SN_LIMIT:
        # Validation where the label is made: the tail's SN has no encoding.
        with pytest.raises(FragmentationError, match="SN past"):
            split(chunk, cut)
        return
    head, tail = split(chunk, cut)
    assert_constructible(head)
    assert_constructible(tail)
    assert can_merge(head, tail)
    merged = merge(head, tail)
    assert merged == chunk
    assert_constructible(merged)


@given(
    ids, st.one_of(st.integers(0, 2**20), st.integers(SN_LIMIT - 4096, SN_LIMIT - 1)),
    st.integers(1, 40), st.integers(1, 3),
    st.lists(st.tuples(st.integers(1, 60), st.one_of(st.none(), ids)), min_size=1, max_size=4),
    # Up to 4 x 60 units can close 240 TPDUs, each drawing the next T.ID.
    st.integers(0, ID_LIMIT - 256),
)
def test_add_frame_makes_constructible_records(c_id, start, tpdu_units, words, frames, first_t_id):
    builder = ChunkStreamBuilder(
        connection_id=c_id, tpdu_units=tpdu_units, unit_words=words, start_c_sn=start,
        tpdu_ids=itertools.count(first_t_id),
    )
    for index, (units, frame_id) in enumerate(frames):
        closing = index == len(frames) - 1
        if builder.next_c_sn + units > SN_LIMIT:
            with pytest.raises(ChunkError, match="C.SN"):
                builder.add_frame(make_payload(units, words), frame_id)
            return
        for chunk in builder.add_frame(make_payload(units, words), frame_id, closing):
            assert_constructible(chunk)


@given(ids, ids, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_build_ed_chunk_makes_constructible_records(c_id, t_id, p0, p1, total_units):
    ed = EdPayload(p0, p1, total_units)
    chunk = build_ed_chunk(c_id, t_id, ed)
    assert_constructible(chunk)
    assert (chunk.type, chunk.c, chunk.t, chunk.x) == (
        ChunkType.ERROR_DETECTION, FramingTuple(c_id, 0), FramingTuple(t_id, 0), FramingTuple(0, 0)
    )
    assert parse_ed_chunk(chunk) == ed


def test_add_frame_checks_are_hoisted_not_dropped():
    """Each value the builder puts in a label is held to its field where it
    is chosen — once per connection, per T.ID drawn, per frame."""
    with pytest.raises(ChunkError, match="C.ID"):
        ChunkStreamBuilder(connection_id=ID_LIMIT, tpdu_units=4)
    with pytest.raises(ChunkError, match="C.ID"):
        ChunkStreamBuilder(connection_id=-1, tpdu_units=4)
    with pytest.raises(ChunkError, match="C.SN"):
        ChunkStreamBuilder(connection_id=1, tpdu_units=4, start_c_sn=SN_LIMIT)
    with pytest.raises(ChunkError, match="T.ID"):
        ChunkStreamBuilder(connection_id=1, tpdu_units=4, tpdu_ids=iter([-1]))
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=4, tpdu_ids=iter([7, ID_LIMIT]))
    with pytest.raises(ChunkError, match="T.ID"):
        builder.add_frame(make_payload(4))  # closes TPDU 7, draws the next id
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=4)
    for bad in (-1, ID_LIMIT):
        with pytest.raises(ChunkError, match="X.ID"):
            builder.add_frame(make_payload(2), frame_id=bad)
    assert builder.next_c_sn == 0  # refused before any label was made


# ----------------------------------------------------------------------
# A constructible chunk is an encodable chunk
# ----------------------------------------------------------------------


@given(any_chunks())
def test_whatever_constructs_encodes(chunk):
    assert_constructible(chunk)


def test_constructor_holds_every_field_to_its_wire_width():
    ok = FramingTuple(ID_LIMIT - 1, SN_LIMIT - 1, True)
    for bad in ((ID_LIMIT, 0), (-1, 0), (0, SN_LIMIT), (0, -1)):
        with pytest.raises(ValueError):
            FramingTuple(*bad)
    with pytest.raises(ChunkError, match="SIZE"):
        Chunk(ChunkType.ACK, SIZE_LIMIT, 1, ok, ok, ok, bytes(4))
    with pytest.raises(ChunkError, match="LEN"):
        Chunk(ChunkType.ACK, 1, LEN_LIMIT, ok, ok, ok, bytes(4))
    with pytest.raises(ChunkError, match="TYPE"):
        Chunk(1, 1, 1, ok, ok, ok, bytes(4))
    widest = Chunk(ChunkType.DATA, SIZE_LIMIT - 1, 1, ok, ok, ok, bytes(4 * (SIZE_LIMIT - 1)))
    assert decode_chunk(encode_chunk(widest))[0] == widest


# ----------------------------------------------------------------------
# What the frozen dataclass gave, the record keeps
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _DataclassChunk:
    """The shape ``Chunk`` had before it was flat: the reference for repr."""

    type: ChunkType
    size: int
    length: int
    c: FramingTuple
    t: FramingTuple
    x: FramingTuple
    payload: bytes


_DataclassChunk.__qualname__ = "Chunk"


@given(any_chunks())
def test_record_keeps_the_frozen_dataclass_contract(chunk):
    for name in ("size", "c_sn", "c", "payload", "colour"):
        with pytest.raises(AttributeError):
            setattr(chunk, name, 1)
    with pytest.raises(AttributeError):
        del chunk.length

    twin = chunk.replace()
    assert twin == chunk and twin is not chunk and hash(twin) == hash(chunk)
    assert len({chunk, twin}) == 1
    other = chunk.replace(c=FramingTuple(chunk.c_id ^ 1, chunk.c_sn, chunk.c_st))
    assert other != chunk and other.payload is chunk.payload
    with pytest.raises(TypeError):
        chunk.replace(c_id=3)  # the constructor's names, not the record's

    reference = _DataclassChunk(
        chunk.type, chunk.size, chunk.length, chunk.c, chunk.t, chunk.x, chunk.payload
    )
    assert repr(chunk) == repr(reference)
    assert chunk.describe() == (
        f"TYPE={chunk.type.name} SIZE={chunk.size} LEN={chunk.length} "
        f"C={chunk.c} T={chunk.t} X={chunk.x}"
    )

    for clone in (copy.copy(chunk), copy.deepcopy(chunk), pickle.loads(pickle.dumps(chunk))):
        assert type(clone) is Chunk and clone == chunk

    wire = encode_chunk(chunk)
    assert encode_chunk(decode_chunk(wire)[0]) == wire
