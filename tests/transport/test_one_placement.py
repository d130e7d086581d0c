"""Each arriving DATA chunk is placed once.

The paper's headline is one data touch: a self-describing chunk goes
straight into application memory on arrival.  ``(C.SN - X.SN)`` is
constant over an external PDU, so a frame is a window of the connection
stream and needs no copy of its own.  These guards fail if a second
placement, a second reservation or per-frame byte storage comes back, or
if virtual reassembly walks its interval set more than once per chunk.
"""

from __future__ import annotations

import random
from dataclasses import fields

from repro.core import packet as packet_mod
from repro.core.intervals import IntervalSet
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.core.virtual import PduState
from repro.host.delivery import PlacementBuffer
from repro.netsim.events import EventLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender


def _count_calls(monkeypatch, cls, name) -> list[int]:
    calls = [0]
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


#: the ``IntervalSet`` methods that walk a window of the set.
WALKS = ("gaps", "add", "insert")


def _walks_per_call(monkeypatch, cls, name, walks) -> list[tuple[int, ...]]:
    """Per call of ``cls.name``: how many of each of *walks* it made."""
    made = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        before = [walks[walk][0] for walk in WALKS]
        try:
            return original(self, *args, **kwargs)
        finally:
            made.append(tuple(walks[walk][0] - n for walk, n in zip(WALKS, before)))

    monkeypatch.setattr(cls, name, counted)
    return made


def test_reversed_mtu_296_transfer_places_each_data_chunk_once(monkeypatch):
    payload = random.Random(20).randbytes(48 * 1024)
    frames = [payload[i : i + 4096] for i in range(0, len(payload), 4096)]
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=256))
    chunks = [sender.establishment_chunk()]
    for index, frame in enumerate(frames):
        chunks += sender.send_frame(frame, end_of_connection=index == len(frames) - 1)
    packets = packet_mod.repack(packet_mod.pack_chunks(chunks, 1500), 296)
    data_chunks = sum(c.type is ChunkType.DATA for p in packets for c in p.chunks)

    places = _count_calls(monkeypatch, PlacementBuffer, "place")
    walks = {name: _count_calls(monkeypatch, IntervalSet, name) for name in WALKS}
    per_record = _walks_per_call(monkeypatch, PduState, "record", walks)
    receiver = ChunkTransportReceiver()
    completed = []
    for packet in reversed(packets):
        completed += receiver.receive_packet(packet.encode()).completed_frames

    assert places[0] == data_chunks > len(frames)
    # The stream's set: one gaps (the overlap check) and one insert.  The
    # TPDU's (virtual reassembly): one insert, which is also its fresh ranges.
    assert sum(calls[0] for calls in walks.values()) <= 3 * data_chunks
    assert len(per_record) == data_chunks and set(per_record) == {(0, 0, 1)}
    assert sorted(completed) == list(range(len(frames)))
    assert [receiver.frames.pop_frame(i) for i in range(len(frames))] == frames
    assert receiver.stream_bytes() == payload
    assert receiver.verified_tpdus() == sender.tpdus_sent and receiver.pending_tpdus() == []


def test_the_frame_store_holds_no_bytes_and_no_interval_set():
    receiver = ChunkTransportReceiver()
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    for chunk in sender.send_frame(b"\x5a" * 256):
        receiver.receive_chunk(chunk)
    store = receiver.frames
    assert store.stream is receiver.stream and store.frames
    state = [getattr(store, f.name) for f in fields(store) if f.name != "stream"]
    state += [getattr(w, f.name) for w in store.frames.values() for f in fields(w)]
    assert not any(
        isinstance(value, (bytes, bytearray, memoryview, IntervalSet, PlacementBuffer))
        for value in state
    ), state


def test_an_endpoint_connection_reserves_its_stream_bytes_once():
    endpoint = ChunkEndpoint(EventLoop())
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    chunks = [sender.establishment_chunk()]
    for _ in range(3):
        chunks += sender.send_frame(b"\xa5" * 512)
    endpoint.receive_packet(Packet(chunks=chunks).encode())
    receiver = endpoint.connection(9).receiver.receiver
    assert len(receiver.frames.completed) == 3
    assert endpoint.budget.held(9) == len(receiver.stream._data) == 3 * 512
    assert endpoint.budget.reserved_total == 3 * 512
