"""No gap report is spurious while reorder stays inside its bound.

A reliable receiver reports an incomplete TPDU once ``REORDER_TPDUS``
TPDUs sent after it have verified.  Hypothesis draws whole transfers
from a ``ChunkTransportSender`` — several frames and TPDUs cut into
small chunks, one chunk per packet — drops some packets, and releases
the rest in an ``AlmostSortedReorder`` order whose displacement bound
is ``REORDER_TPDUS`` packet times (Istrate's almost-sorted
permutations; the reorder window of Wu et al., PAPERS.md), ties broken
by send order as the event loop breaks them.

Every unit a report names, and the ED chunk when it names the unit past
the TPDU's last, must then be in a dropped packet: a report is a loss,
never a reorder.  With nothing dropped there is no report at all.

Those properties hold for any bound; the bound itself is read off the
``lossy_path`` benchmark path, whose routers repack chunks into smaller
packets and so reorder them.  With no report to change what is sent,
``REORDER_TPDUS`` is one more than the most later TPDUs that verify
ahead of a TPDU that lost no chunk.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from bench_e2e.workloads import WORKLOADS
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import Packet
from repro.core.types import ChunkType
from repro.netsim.adversary import AlmostSortedReorder
from repro.netsim.link import Link
from repro.transport.acks import parse_gap_report
from repro.transport.connection import ConnectionConfig
from repro.transport.reliability import REORDER_TPDUS, ReliableReceiver
from repro.transport.sender import ChunkTransportSender
from repro.wsc.endtoend import EndToEndReceiver

from tests.conftest import deterministic_bytes

C_ID = 4
FRAME_TIME = 1e-4  # nominal spacing of packets on the wire
_TPDU_TYPES = (ChunkType.DATA, ChunkType.ERROR_DETECTION)


@st.composite
def transfers(draw, lossy: bool = True):
    """(packets in arrival order, the dropped ones, each TPDU's unit count)."""
    sender = ChunkTransportSender(
        ConnectionConfig(connection_id=C_ID, tpdu_units=draw(st.integers(4, 24)))
    )
    limit = draw(st.integers(1, 6))
    frames = draw(st.lists(st.integers(1, 40), min_size=4, max_size=10))
    wire = []
    for index, units in enumerate(frames):
        last = index == len(frames) - 1
        for chunk in sender.send_frame(
            deterministic_bytes(units * 4, seed=index), end_of_connection=last
        ):
            wire += split_to_unit_limit(chunk, limit) if chunk.is_data else [chunk]
    totals: dict[int, int] = {}
    for chunk in wire:
        if chunk.is_data:
            totals[chunk.t_id] = max(totals.get(chunk.t_id, 0), chunk.t.sn + chunk.length)
    dropped = set()
    if lossy:
        dropped = set(draw(st.lists(st.integers(0, len(wire) - 1), max_size=len(wire) // 4)))
    policy = AlmostSortedReorder(
        displacement_rate=draw(st.sampled_from([0.1, 0.3, 0.6, 1.0])),
        max_skew=REORDER_TPDUS * FRAME_TIME,
        rng=draw(st.randoms(use_true_random=False)),
    )
    release = [policy.release_time(i * FRAME_TIME, i * FRAME_TIME) for i in range(len(wire))]
    order = sorted(range(len(wire)), key=lambda i: (release[i], i))
    arrivals = [wire[i] for i in order if i not in dropped]
    return arrivals, [wire[i] for i in dropped], totals


def _reports(arrivals) -> list:
    flushed: list = []
    session = ReliableReceiver(None, transmit_chunks=flushed.extend)
    for chunk in arrivals:
        session.receive_chunks([chunk])
    return [chunk for chunk in flushed if chunk.t_st]


@given(transfers())
def test_every_reported_unit_was_lost(transfer):
    arrivals, dropped, totals = transfer
    lost_units = {
        (chunk.t_id, unit)
        for chunk in dropped if chunk.is_data
        for unit in range(chunk.t.sn, chunk.t.sn + chunk.length)
    }
    lost_eds = {chunk.t_id for chunk in dropped if chunk.type is ChunkType.ERROR_DETECTION}
    for report in _reports(arrivals):
        total = totals[report.t_id]
        gaps = parse_gap_report(report, total)
        assert gaps is not None, report  # what an honest sender accepts
        for start, end in gaps:
            for unit in range(start, min(end, total)):
                assert (report.t_id, unit) in lost_units, (report.t_id, unit)
            if end > total:
                assert report.t_id in lost_eds, (report.t_id, "ED")


@given(transfers(lossy=False))
def test_reorder_within_the_bound_reports_nothing(transfer):
    arrivals, dropped, _ = transfer
    assert not dropped
    assert _reports(arrivals) == []


def test_the_bound_is_the_least_above_the_benchmark_path_reorder(monkeypatch):
    lost: set[int] = set()  # T.IDs with a DATA or ED chunk in a dropped frame
    verified: list[int] = []
    send, acknowledge = Link.send, ReliableReceiver._acknowledge

    def lossy_send(link, frame):
        before = link.stats.frames_lost
        send(link, frame)
        if link.stats.frames_lost != before:
            lost.update(c.t_id for c in Packet.decode(frame).chunks if c.type in _TPDU_TYPES)

    def recording(session, events):
        verified.extend(v.t_id for v in events.verdicts if v.ok)
        acknowledge(session, events)

    monkeypatch.setattr(Link, "send", lossy_send)
    monkeypatch.setattr(ReliableReceiver, "_acknowledge", recording)
    monkeypatch.setattr(EndToEndReceiver, "gaps", lambda *_: [])  # the timer repeats alone
    workload, ahead = WORKLOADS["lossy_path"], 0  # one conversation
    for seed in (1993, 7):
        lost.clear()
        verified.clear()
        workload.run(workload.build(seed, 1.0))
        for position, t_id in enumerate(verified):
            if t_id not in lost:
                ahead = max(ahead, sum(later > t_id for later in verified[:position]))
    assert ahead == REORDER_TPDUS - 1
