"""One record per chunk, measured: no tuples, no ``replace`` on the wire path.

A label is one flat record from the moment it is formed, decoded or cut.
This test does not read a counter the code increments: it patches the
constructors themselves — both ways of making a :class:`Chunk`,
``FramingTuple``'s validation hook and ``dataclasses.replace`` — and
runs a sender -> MTU 4096 / 1500 / 296 refragmenting path -> receiver
transfer with no obs session installed.

What must hold:

- every chunk formed, decoded or cut is exactly one record: the records
  made equal the chunks the sender returned, plus every chunk a decoder
  handed back, plus every piece of every cut;
- the validating constructor runs only for the one control chunk the
  sender makes through the public API (the SIGNALING chunk), and its
  three are the only ``FramingTuple``s built; no DATA chunk builds one,
  nor does a TPDU's ERROR_DETECTION chunk (a ``_make`` record: its IDs
  are the DATA chunks', every other field a constant);
- ``dataclasses.replace`` is never called.
"""

from __future__ import annotations

import dataclasses
import random
import sys

from repro.core import codec, fragment
from repro.core.chunk import Chunk
from repro.core.packet import pack_chunks
from repro.core.tuples import FramingTuple
from repro.netsim.events import EventLoop
from repro.netsim.topology import HopSpec, build_chunk_path
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender


def test_refragmenting_transfer_makes_one_record_per_chunk(monkeypatch):
    made = {"validated": 0, "trusted": 0, "tuples": 0, "decoded": 0, "cut": 0}

    validating_new = Chunk.__new__
    trusted_make = Chunk._make
    validate_tuple = FramingTuple.__post_init__
    decode_chunk = codec.decode_chunk
    split_to_unit_limit = fragment.split_to_unit_limit

    def counting_new(cls, *args, **kwargs):
        made["validated"] += 1
        return validating_new(cls, *args, **kwargs)

    def counting_make(*fields):
        made["trusted"] += 1
        return trusted_make(*fields)

    def counting_tuple(self):
        made["tuples"] += 1
        validate_tuple(self)

    def counting_decode(data, offset=0):
        chunk, end = decode_chunk(data, offset)
        made["decoded"] += chunk is not None
        return chunk, end

    def counting_cut(chunk, max_units):
        pieces = split_to_unit_limit(chunk, max_units)
        made["cut"] += len(pieces) if len(pieces) > 1 else 0
        return pieces

    def forbidden_replace(*args, **changes):
        raise AssertionError(f"dataclasses.replace on the wire path: {args} {changes}")

    monkeypatch.setattr(Chunk, "__new__", counting_new)
    monkeypatch.setattr(Chunk, "_make", staticmethod(counting_make))
    monkeypatch.setattr(FramingTuple, "__post_init__", counting_tuple)
    monkeypatch.setattr(codec, "decode_chunk", counting_decode)
    monkeypatch.setattr(fragment, "split_to_unit_limit", counting_cut)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is dataclasses.replace:
                    monkeypatch.setattr(module, name, forbidden_replace)
    monkeypatch.setattr(dataclasses, "replace", forbidden_replace)

    payload = random.Random(21).randbytes(48 * 1024)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=1024))
    chunks = [sender.establishment_chunk()]
    for start in range(0, len(payload), 16 * 1024):
        last = start + 16 * 1024 == len(payload)
        chunks += sender.send_frame(payload[start : start + 16 * 1024], end_of_connection=last)
    formed = len(chunks)

    loop = EventLoop()
    receiver = ChunkTransportReceiver()
    path = build_chunk_path(
        loop,
        [HopSpec(mtu=4096), HopSpec(mtu=1500), HopSpec(mtu=296)],
        receiver.receive_packet,
    )
    for packet in pack_chunks(chunks, 4096):
        path.send(packet.encode())
    path.run()

    assert receiver.stream_bytes() == payload
    assert receiver.verified_tpdus() == sender.tpdus_sent and receiver.corrupted_tpdus() == 0
    assert all(router.stats.chunks_split > 0 for router in path.routers)

    assert made["cut"] > 0 and made["decoded"] > formed  # the path did refragment
    assert made["validated"] == 1
    assert made["tuples"] == 3
    assert made["validated"] + made["trusted"] == formed + made["decoded"] + made["cut"]
