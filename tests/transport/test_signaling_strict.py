"""Strict establishment parsing: reserved bytes, flag bits, length, C.ID.

A corrupted establishment chunk would install wrong per-connection
SIZE/TPDU parameters and mis-place every subsequent chunk of the
conversation, so :func:`parse_signaling_chunk` must fail loudly on any
payload it does not fully understand: one whose flag word or reserved
bytes are not zero, one that is not exactly one signaling record, and
one whose C.ID is not the chunk header's.
"""

from __future__ import annotations

import struct

import pytest

from repro.core.errors import SignalingError
from repro.core.chunk import Chunk
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.transport.connection import (
    ConnectionConfig,
    build_signaling_chunk,
    parse_signaling_chunk,
)


def signaling_chunk_with_payload(payload: bytes, connection_id: int = 5) -> Chunk:
    pad = (-len(payload)) % 4
    payload += b"\x00" * pad
    return Chunk(
        type=ChunkType.SIGNALING,
        size=1,
        length=len(payload) // 4,
        c=FramingTuple(connection_id, 0, False),
        t=FramingTuple(0, 0, False),
        x=FramingTuple(0, 0, False),
        payload=payload,
    )


def raw_signaling(
    connection_id: int = 5,
    unit_words: int = 1,
    tpdu_units: int = 256,
    flags: int = 0,
    reserved1: int = 0,
    reserved2: int = 0,
) -> Chunk:
    payload = struct.pack(
        ">IHHHBB", connection_id, unit_words, tpdu_units, flags, reserved1, reserved2
    )
    return signaling_chunk_with_payload(payload, connection_id)


def test_well_formed_signaling_parses():
    config = ConnectionConfig(connection_id=77, unit_words=2, tpdu_units=128)
    assert parse_signaling_chunk(build_signaling_chunk(config)) == config


@pytest.mark.parametrize("reserved", [(1, 0), (0, 1), (0xFF, 0xFF)])
def test_nonzero_reserved_bytes_rejected(reserved):
    chunk = raw_signaling(reserved1=reserved[0], reserved2=reserved[1])
    with pytest.raises(SignalingError, match="reserved"):
        parse_signaling_chunk(chunk)


@pytest.mark.parametrize("flags", [0x0001, 0x0002, 0x0003, 0x0004, 0x8000, 0x0007, 0xFFFC])
def test_unknown_flag_bits_rejected(flags):
    chunk = raw_signaling(flags=flags)
    with pytest.raises(SignalingError, match="flag"):
        parse_signaling_chunk(chunk)


def test_short_payload_rejected():
    chunk = signaling_chunk_with_payload(b"\x00\x00\x00\x00")
    with pytest.raises(SignalingError, match="short"):
        parse_signaling_chunk(chunk)


def test_long_payload_rejected():
    chunk = signaling_chunk_with_payload(raw_signaling().payload + bytes(4))
    with pytest.raises(SignalingError, match="long"):
        parse_signaling_chunk(chunk)


def test_payload_c_id_that_is_not_the_headers_rejected():
    chunk = signaling_chunk_with_payload(raw_signaling(connection_id=5).payload, 9)
    with pytest.raises(SignalingError, match="C.ID 5 differs from its header's 9"):
        parse_signaling_chunk(chunk)


@pytest.mark.parametrize("established", [False, True], ids=["fresh", "payload-c-id-established"])
def test_an_endpoint_refuses_a_signaling_chunk_whose_c_ids_disagree(established):
    """Header C.ID 9, payload C.ID 5: nothing is established, registered or
    raised, the chunk is counted as unknown, and a sweep leaves one budget
    token per table entry."""
    from repro.core.packet import Packet
    from repro.netsim.events import EventLoop
    from repro.transport.endpoint import ChunkEndpoint

    endpoint = ChunkEndpoint(EventLoop())
    if established:
        endpoint.receive_chunks([build_signaling_chunk(ConnectionConfig(connection_id=5))])
    table, registered = dict(endpoint.table.connections), endpoint.budget.registered
    mismatched = signaling_chunk_with_payload(raw_signaling(connection_id=5).payload, 9)
    events = endpoint.receive_packet(Packet(chunks=[mismatched]).encode())
    assert events.established == [] and events.refused_chunks == 1
    assert endpoint.refused_unknown == 1
    assert endpoint.table.connections == table
    assert endpoint.budget.registered == registered == len(table)
    endpoint.sweep(now=10.0)
    assert endpoint.budget.registered == len(endpoint.table)


def test_wrong_type_rejected():
    data = Chunk(
        type=ChunkType.DATA, size=1, length=1,
        c=FramingTuple(1, 0, False), t=FramingTuple(0, 0, False),
        x=FramingTuple(0, 0, False), payload=b"\x00\x00\x00\x00",
    )
    with pytest.raises(SignalingError, match="not a signaling chunk"):
        parse_signaling_chunk(data)


def test_receiver_counts_rejections_and_keeps_config_unset():
    from repro.transport.receiver import ChunkTransportReceiver

    receiver = ChunkTransportReceiver()
    receiver.receive_chunks([raw_signaling(reserved1=9)])
    assert receiver.signaling_rejected == 1
    assert receiver.config is None
    receiver.receive_chunks([build_signaling_chunk(ConnectionConfig(connection_id=5))])
    assert receiver.config is not None


def test_the_endpoint_parse_configures_the_receiver_and_only_new_bytes_are_reparsed(
    monkeypatch,
):
    """One parse per establishment: the endpoint's configures the receiver,
    a repeat of the same bytes is not parsed again, and SIG bytes that
    differ still meet the strict parser (and are counted when refused)."""
    from repro.netsim.events import EventLoop
    from repro.transport import receiver as receiver_module
    from repro.transport.endpoint import ChunkEndpoint

    parses = []

    def counting_parse(chunk):
        parses.append(chunk.payload)
        return parse_signaling_chunk(chunk)

    monkeypatch.setattr(receiver_module, "parse_signaling_chunk", counting_parse)
    config = ConnectionConfig(connection_id=5, tpdu_units=64)
    sig = build_signaling_chunk(config)
    endpoint = ChunkEndpoint(EventLoop())
    endpoint.receive_chunks([sig, sig])
    inner = endpoint.connection(5).receiver.receiver
    assert inner.config == config and parses == []
    endpoint.receive_chunks([sig])
    assert parses == [] and inner.signaling_rejected == 0

    endpoint.receive_chunks([raw_signaling(reserved1=9), raw_signaling(tpdu_units=32)])
    assert len(parses) == 2
    assert inner.signaling_rejected == 1 and inner.config == config
