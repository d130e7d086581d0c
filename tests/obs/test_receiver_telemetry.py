"""The receiver's series read the same whatever the path publishes them.

The live receiver keeps its tallies as plain integers and publishes them
once per call, not once per chunk.  This test drives every kind of chunk
the receiver handles — fresh, fully duplicate and straddling DATA, ED,
SIG, a TYPE it has no handler for, an overlap conflict, an undecodable
frame — through all three entry points (``receive_packet``,
``receive_chunks``, ``receive_chunk``) inside one session, and pins every
``transport.receiver.*`` and ``host.data_touch*`` sample, the
out-of-order histogram included, to the values the per-chunk pushes
recorded.
"""

from __future__ import annotations

from repro.core.chunk import Chunk
from repro.core.fragment import split
from repro.core.packet import Packet, pack_chunks
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.obs import journey_session, session
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender
from repro.wsc.invariant import EdPayload, build_ed_chunk
from tests.conftest import make_payload


def _mixed_traffic(receiver: ChunkTransportReceiver) -> None:
    sender = ChunkTransportSender(ConnectionConfig(connection_id=5, tpdu_units=8))
    signaling = sender.establishment_chunk()
    chunks = sender.send_frame(make_payload(48), frame_id=3, end_of_connection=True)
    data = [c for c in chunks if c.type is ChunkType.DATA]
    eds = [c for c in chunks if c.type is ChunkType.ERROR_DETECTION]
    later = [c for c in data if c.t_id == data[-1].t_id]
    earlier = [c for c in data if c.t_id != data[-1].t_id]

    # Packets of the earlier TPDUs, newest first, one of them twice.
    frames = [p.encode() for p in pack_chunks([signaling, *earlier], 120)]
    for frame in reversed(frames):
        receiver.receive_packet(frame)
    receiver.receive_packet(frames[1])  # fully duplicate chunks
    receiver.receive_packet(b"\x00\x01garbage")  # undecodable

    # The last TPDU: its head alone, then the whole chunk (straddling).
    head, _ = split(later[0], 2)
    receiver.receive_chunk(head)
    receiver.receive_chunks([later[0], eds[0], eds[1]])
    conflict = earlier[0].replace(payload=bytes(len(earlier[0].payload)))
    stray = Chunk(
        type=ChunkType.ACK, size=1, length=1,
        c=FramingTuple(5, 0), t=FramingTuple(0, 0), x=FramingTuple(0, 0), payload=bytes(4),
    )
    receiver.receive_chunks([conflict, stray])
    receiver.receive_packet(Packet(chunks=eds[2:]).encode())

    # Refusals: a SIG too short to parse, and a verified TPDU's chunk at
    # an absurd stream offset (a corrupted C.SN).  Then a TPDU whose ED
    # parities are wrong: its bytes are placed ones, so a duplicate.
    short_sig = signaling.replace(length=1, payload=signaling.payload[:4])
    absurd = earlier[1].replace(c=FramingTuple(5, 1 << 40))
    renamed = earlier[0].replace(t=FramingTuple(9, 0, True))
    receiver.receive_chunks([short_sig, absurd, renamed, build_ed_chunk(5, 9, EdPayload(1, 2, 8))])


def test_receiver_series_keep_their_per_chunk_values():
    with session() as (registry, tracer), journey_session() as tracker:
        receiver = ChunkTransportReceiver()
        _mixed_traffic(receiver)
    assert (receiver.verified_tpdus(), receiver.corrupted_tpdus()) == (6, 1)
    samples = {
        f"{s.scope}.{s.name}": s.data
        for s in registry.samples()
        if s.name.startswith(("receiver.", "data_touch")) or s.scope == "wsc"
    }
    assert samples == SERIES
    assert [(e.scope, e.name, e.fields) for e in tracer.events] == EVENTS
    assert [(r.stage, r.level, r.offset, r.length, r.fields) for r in tracker.records] == JOURNEY


def test_nothing_is_published_outside_a_session():
    receiver = ChunkTransportReceiver()
    _mixed_traffic(receiver)
    with session() as (registry, _):
        receiver.receive_packet(b"\x00\x01garbage")
    assert registry.get("transport", "receiver.packets_received").value == 1
    assert registry.get("transport", "receiver.chunks_received").value == 0
    assert registry.get("host", "data_touch_bytes").value == 0


# What the per-chunk pushes recorded for :func:`_mixed_traffic`.

SERIES: dict[str, dict[str, object]] = {
    "host.data_touch_bytes": {"value": 192},
    "host.data_touches": {"value": 7},
    "transport.receiver.budget_refused_chunks": {"value": 0},
    "transport.receiver.chunks_received": {"value": 21},
    "transport.receiver.decode_failures": {"value": 1},
    "transport.receiver.duplicate_chunks": {"value": 2},
    "transport.receiver.ooo_distance": {
        "buckets": {"-21": 1, "1": 1, "4": 1, "40": 2, "5": 3, "6": 3},
        "count": 11,
        "max": 1099511627784,
        "mean": 199911205067.81818,
        "min": 0,
        "sum": 2199023255746.0,
    },
    "transport.receiver.overlap_conflict_chunks": {"value": 1},
    "transport.receiver.packets_received": {"value": 9},
    "transport.receiver.rejected_placements": {"value": 1},
    "transport.receiver.signaling_rejected": {"value": 1},
    "transport.receiver.unknown_type_chunks": {"value": 1},
    "wsc.decode_fail.code-mismatch": {"value": 0},
    "wsc.decode_fail.reassembly-error": {"value": 0},
    "wsc.decode_ok": {"value": 0},
    "wsc.fail.code-mismatch": {"value": 1},
    "wsc.fail.consistency-check": {"value": 0},
    "wsc.fail.reassembly-error": {"value": 0},
    "wsc.tpdu_corrupted": {"value": 1},
    "wsc.tpdu_verified": {"value": 6},
}

EVENTS = [
    ("wsc", "verdict", {"c_id": 5, "t_id": t_id, "ok": True, "reason": None})
    for t_id in range(6)
] + [("wsc", "verdict", {"c_id": 5, "t_id": 9, "ok": False, "reason": "code-mismatch"})]

JOURNEY = [
    ("placed", "chunk", 128, 32, {"t_id": 4, "x_id": 3, "fresh": 32}),
    ("placed", "chunk", 96, 32, {"t_id": 3, "x_id": 3, "fresh": 32}),
    ("placed", "chunk", 64, 32, {"t_id": 2, "x_id": 3, "fresh": 32}),
    ("placed", "chunk", 32, 32, {"t_id": 1, "x_id": 3, "fresh": 32}),
    ("placed", "chunk", 0, 32, {"t_id": 0, "x_id": 3, "fresh": 32}),
    ("duplicate", "chunk", 0, 32, {"t_id": 0, "x_id": 3}),
    ("placed", "chunk", 160, 8, {"t_id": 5, "x_id": 3, "fresh": 8}),
    ("placed", "chunk", 160, 32, {"t_id": 5, "x_id": 3, "fresh": 24}),
    ("delivered", "frame", 0, 0, {"x_id": 3}),
    ("verified", "tpdu", 0, 0, {"t_id": 0, "ok": True}),
    ("verified", "tpdu", 0, 0, {"t_id": 1, "ok": True}),
    ("conflict", "chunk", 0, 32, {"t_id": 0, "x_id": 3, "reason": "overlap"}),
    ("verified", "tpdu", 0, 0, {"t_id": 2, "ok": True}),
    ("verified", "tpdu", 0, 0, {"t_id": 3, "ok": True}),
    ("verified", "tpdu", 0, 0, {"t_id": 4, "ok": True}),
    ("verified", "tpdu", 0, 0, {"t_id": 5, "ok": True}),
    ("refused", "chunk", 1 << 42, 32, {"t_id": 1, "x_id": 3, "reason": "bounds"}),
    ("duplicate", "chunk", 0, 32, {"t_id": 9, "x_id": 3}),
    ("verified", "tpdu", 0, 0, {"t_id": 9, "ok": False}),
]
