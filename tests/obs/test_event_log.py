"""One event log: every fact the retired ``Tracer`` recorded is a
journey record.

``TRACER_EVENTS`` holds the events the ``Tracer`` recorded for each
scenario, pinned while it still ran beside the journey tracker.  For
every one, a run with only the journey tracker installed must hold a
record with the same facts:

- ``conn_established`` / ``conn_closed`` / ``conn_evicted`` are the
  ``established`` / ``closed`` / ``evicted`` conn records of that C.ID,
  at the same time, with the same ``reason`` and ``shard``;
- ``retransmit {t_id, retry}`` is the per-chunk ``retransmit`` records
  of that T.ID with ``gen == retry``, at the same time;
- the ``wsc`` ``verdict {c_id, t_id, ok, reason}`` is the ``verified``
  tpdu record of that C.ID and T.ID with the same ``ok`` and ``reason``;
- ``gave_up {t_id}`` is the ``gave_up`` tpdu record of that T.ID;
- ``tombstone_dropped {conn, reason, dropped}`` is an ``evicted`` conn
  record with ``reason="tombstone_overflow"`` and the same ``dropped``
  count, at the same time.  It names the C.ID whose tombstone the FIFO
  forgot; ``conn``, the C.ID being evicted, is that instant's ordinary
  ``evicted`` record.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.core.packet import Packet
from repro.netsim.events import EventLoop
from repro.obs import journey_session
from repro.obs.provenance import StageRecord
from repro.transport.connection import ConnectionConfig, build_signaling_chunk
from repro.transport.endpoint import ChunkEndpoint, ConnectionTable
from repro.transport.receiver import ChunkTransportReceiver
from tests.obs.test_network_telemetry import _give_up, _lossy_pair, _sharded_lends
from tests.obs.test_receiver_telemetry import _mixed_traffic

Event = tuple[str, str, float, dict[str, object]]

CONN_STAGES = {
    "conn_established": "established",
    "conn_closed": "closed",
    "conn_evicted": "evicted",
}


def _signal(endpoint: ChunkEndpoint, cid: int) -> None:
    chunk = build_signaling_chunk(ConnectionConfig(connection_id=cid))
    endpoint.receive_packet(Packet(chunks=[chunk]).encode())


def _tombstone_churn() -> None:
    """A capacity-2 tombstone FIFO overflowed two ways: C.IDs 1, 2, 3
    are established and evicted in turn, so evicting 3 forgets 1; then,
    at ``max_connections=1`` with 4 established, refusing 5 tombstones
    it and forgets 2."""
    loop = EventLoop()
    receiver = ChunkEndpoint(
        loop, transmit=lambda frame: None, idle_timeout=1.0,
        max_connections=1, table=ConnectionTable(tombstone_capacity=2),
    )
    for step, cid in enumerate((1, 2, 3)):
        _signal(receiver, cid)
        receiver.sweep(2.0 * (step + 1))
    _signal(receiver, 4)
    _signal(receiver, 5)
    assert list(receiver.table.evicted_ids) == [3, 5]


def _receiver_traffic() -> None:
    _mixed_traffic(ChunkTransportReceiver())


SCENARIOS: dict[str, Callable[[], None]] = {
    "lossy_pair": _lossy_pair,
    "give_up": _give_up,
    "sharded_lends": _sharded_lends,
    "receiver_traffic": _receiver_traffic,
    "tombstone_churn": _tombstone_churn,
}


def _journey(scenario: Callable[[], None]) -> list[StageRecord]:
    with journey_session() as tracker:
        scenario()
    return tracker.records


def _counterparts(event: Event, records: list[StageRecord]) -> list[StageRecord]:
    """The journey records that carry *event*'s facts."""
    _, name, t, fields = event
    rest = {key: value for key, value in fields.items() if key != "conn"}
    if name in CONN_STAGES:
        return [
            r for r in records
            if r.level == "conn" and r.stage == CONN_STAGES[name]
            and r.c_id == fields["conn"] and r.t == t and r.fields == rest
        ]
    if name == "tombstone_dropped":
        return [
            r for r in records
            if r.level == "conn" and r.stage == "evicted" and r.t == t and r.fields == rest
        ]
    if name == "retransmit":
        return [
            r for r in records
            if r.level == "chunk" and r.stage == "retransmit" and r.t == t
            and r.fields.get("t_id") == fields["t_id"] and r.gen == fields["retry"]
        ]
    if name == "gave_up":
        return [
            r for r in records
            if r.level == "tpdu" and r.stage == "gave_up" and r.t == t
            and r.fields == fields
        ]
    assert name == "verdict", name
    return [
        r for r in records
        if r.level == "tpdu" and r.stage == "verified" and r.t == t
        and r.c_id == fields["c_id"] and r.fields.get("t_id") == fields["t_id"]
        and r.fields.get("ok") == fields["ok"] and r.fields.get("reason") == fields["reason"]
    ]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_tracer_event_has_a_journey_record(name):
    records = _journey(SCENARIOS[name])
    for event in TRACER_EVENTS[name]:
        assert _counterparts(event, records), event


def test_tombstone_overflow_names_the_forgotten_conversation():
    """Both sites that tombstone record the C.ID the FIFO forgot — the
    one whose late chunks are now refused as ``unknown`` — and an
    admission refused at ``max_connections`` leaves a record."""
    records = _journey(_tombstone_churn)
    facts = [
        (r.t, r.stage, r.c_id, r.fields) for r in records
        if r.level == "conn" and r.stage != "established"
    ]
    assert facts == [
        (2.0, "evicted", 1, {"reason": "idle"}),
        (4.0, "evicted", 2, {"reason": "idle"}),
        (6.0, "evicted", 3, {"reason": "idle"}),
        (6.0, "evicted", 1, {"reason": "tombstone_overflow", "dropped": 1}),
        (0.0, "refused", 5, {"reason": "max_connections"}),
        (0.0, "evicted", 2, {"reason": "tombstone_overflow", "dropped": 2}),
    ]


# The Tracer's events for each scenario, as it recorded them.

_V = ("wsc", "verdict", 0.0)


def _ok(c_id: int, t_id: int) -> Event:
    return (*_V, {"c_id": c_id, "t_id": t_id, "ok": True, "reason": None})


def _conn(name: str, t: float, conn: int, **fields: object) -> Event:
    return ("transport", name, t, {"conn": conn, **fields})


def _rtx(t: float, t_id: int, retry: int) -> Event:
    return ("transport", "retransmit", t, {"t_id": t_id, "retry": retry})


# The lossy pair's four conn times were moved to the journey's when an ED
# chunk behind its final DATA chunk lost its header (shorter frames arrive
# earlier), and three again when the batching router came to size its
# packets as the codec writes them (C.ID 3 closes and C.ID 4 opens at
# 0.0222391 s, C.ID 4 closes at 0.0223589 s); every other fact is as the
# Tracer recorded it.
TRACER_EVENTS: dict[str, list[Event]] = {
    "lossy_pair": [
        _conn("conn_established", 0.002066935483870968, 3),
        _ok(3, 0),
        _rtx(0.02, 1, 1),
        _rtx(0.02, 2, 1),
        _rtx(0.02, 0, 1),
        _rtx(0.02, 1, 1),
        _rtx(0.02, 2, 1),
        _ok(3, 1),
        _ok(3, 2),
        _conn("conn_closed", 0.022239116129032267, 3),
        _conn("conn_established", 0.022239116129032267, 4),
        _ok(4, 0),
        _ok(4, 2),
        _conn("conn_closed", 0.02235885806451614, 4),
        _rtx(0.06, 1, 2),
        _ok(4, 1),
        _conn("conn_evicted", 5.14, 3, reason="closed"),
        _conn("conn_evicted", 5.14, 4, reason="closed"),
    ],
    "give_up": [
        _rtx(0.01, 0, 1),
        _rtx(0.03, 0, 2),
        ("transport", "gave_up", 0.07, {"t_id": 0}),
    ],
    "sharded_lends": [
        _conn("conn_established", 0.0, 20, shard=1),
        _conn("conn_established", 0.0, 24, shard=2),
        _conn("conn_established", 0.0, 21, shard=3),
        _ok(20, 0), _ok(24, 0), _ok(21, 0),
        _ok(20, 1), _ok(24, 1), _ok(21, 1),
        _ok(20, 2),
        _conn("conn_closed", 0.0, 20, shard=1),
        _conn("conn_established", 0.0, 22, shard=1),
        _ok(24, 2),
        _conn("conn_closed", 0.0, 24, shard=2),
        _ok(21, 2),
        _conn("conn_closed", 0.0, 21, shard=3),
        _conn("conn_established", 0.0, 23, shard=3),
        _ok(22, 0), _ok(23, 0), _ok(22, 1), _ok(23, 1), _ok(22, 2),
        _conn("conn_closed", 0.0, 22, shard=1),
        _ok(23, 2),
        _conn("conn_closed", 0.0, 23, shard=3),
        _conn("conn_evicted", 5.05, 20, reason="closed", shard=1),
        _conn("conn_evicted", 5.05, 22, reason="closed", shard=1),
        _conn("conn_evicted", 5.05, 24, reason="closed", shard=2),
        _conn("conn_evicted", 5.05, 21, reason="closed", shard=3),
        _conn("conn_evicted", 5.05, 23, reason="closed", shard=3),
    ],
    "receiver_traffic": [_ok(5, t_id) for t_id in range(6)] + [
        (*_V, {"c_id": 5, "t_id": 9, "ok": False, "reason": "code-mismatch"}),
    ],
    "tombstone_churn": [
        _conn("conn_established", 0.0, 1),
        _conn("conn_evicted", 2.0, 1, reason="idle"),
        _conn("conn_established", 0.0, 2),
        _conn("conn_evicted", 4.0, 2, reason="idle"),
        _conn("conn_established", 0.0, 3),
        _conn("conn_evicted", 6.0, 3, reason="idle"),
        _conn("tombstone_dropped", 6.0, 3, reason="tombstone_overflow", dropped=1),
        _conn("conn_established", 0.0, 4),
    ],
}
