"""End-to-end tests: the hot paths actually feed the observability layer."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

import repro.obs.runtime as obs_runtime
from repro.core.packet import pack_chunks
from repro.host.memory import TouchLedger
from repro.host.receiver import ImmediateReceiver, ReorderReceiver
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.trace import ReceiverTrace
from repro.obs import session
from repro.obs.report import load_records, main, summarize
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.reliability import ReliableSender
from repro.transport.sender import ChunkTransportSender
from repro.transport.shard import ShardedEndpoint
from tests.conftest import make_chunk, make_payload

MTU = 1500


def _transfer(payload: bytes, reverse_packets: bool = False) -> ChunkTransportReceiver:
    """One frame sender → receiver, optionally with packets reversed."""
    sender = ChunkTransportSender(ConnectionConfig(connection_id=5, tpdu_units=8))
    chunks = [sender.establishment_chunk()]
    chunks += sender.send_frame(payload, frame_id=0, end_of_connection=True)
    receiver = ChunkTransportReceiver()
    packets = pack_chunks(chunks, 100)  # small MTU: several packets
    if reverse_packets:
        packets = list(reversed(packets))
    for packet in packets:
        receiver.receive_packet(packet.encode())
    return receiver


class TestTransportInstrumentation:
    def test_clean_transfer_populates_counters(self):
        with session() as (registry, _):
            receiver = _transfer(make_payload(32))
            assert receiver.verified_tpdus() == 4
            assert registry.get("transport", "receiver.packets_received").value > 0
            assert registry.get("transport", "receiver.chunks_received").value > 0
            assert registry.get("transport", "sender.frames_sent").value == 1
            assert registry.get("transport", "sender.tpdus_sent").value == 4
            assert registry.get("wsc", "tpdu_verified").value == 4
            assert registry.get("wsc", "tpdu_corrupted").value == 0

    def test_data_touches_count_fresh_placements_once(self):
        payload = make_payload(32)
        with session() as (registry, _):
            _transfer(payload)
            assert registry.get("host", "data_touches").value > 0
            assert registry.get("host", "data_touch_bytes").value == len(payload)

    def test_duplicate_packets_do_not_touch_twice(self):
        payload = make_payload(16)
        sender = ChunkTransportSender(ConnectionConfig(connection_id=5, tpdu_units=8))
        chunks = sender.send_frame(payload, frame_id=0, end_of_connection=True)
        frames = [p.encode() for p in pack_chunks(chunks, 100)]
        with session() as (registry, _):
            receiver = ChunkTransportReceiver()
            for frame in frames + frames:  # every packet delivered twice
                receiver.receive_packet(frame)
            assert registry.get("host", "data_touch_bytes").value == len(payload)
            assert registry.get("transport", "receiver.duplicate_chunks").value > 0

    def test_out_of_order_arrivals_fill_distance_histogram(self):
        with session() as (registry, _):
            _transfer(make_payload(64), reverse_packets=True)
            histogram = registry.get("transport", "receiver.ooo_distance")
            assert histogram.count > 0
            assert histogram.maximum > 0

    def test_verdict_events_reach_the_tracer(self):
        with session() as (_, tracer):
            _transfer(make_payload(16))
            verdicts = [e for e in tracer.events if e.name == "verdict"]
            assert verdicts
            assert all(e.scope == "wsc" for e in verdicts)
            assert all(e.fields["ok"] for e in verdicts)


class TestReliabilityInstrumentation:
    def test_lossy_path_counts_timeouts_and_retransmissions(self):
        loop = EventLoop()
        delivered: list[bytes] = []
        drop = {"remaining": 2}

        def flaky_transmit(frame: bytes) -> None:
            if drop["remaining"] > 0:
                drop["remaining"] -= 1
                return
            delivered.append(frame)

        with session(clock=lambda: loop.now) as (registry, tracer):
            sender = ReliableSender(
                loop,
                flaky_transmit,
                ConnectionConfig(connection_id=9, tpdu_units=8),
                mtu=200,
                rto=0.01,
                max_retries=6,
            )
            sender.send_frame(make_payload(8), frame_id=0, end_of_connection=True)
            # Nothing ACKs, so timers fire until give-up; stop once the
            # first retransmission has been observed.
            for _ in range(3):
                loop.run(until=loop.now + 0.1)
                if sender.retransmissions:
                    break
            assert registry.get("transport", "rto_timeouts").value >= 1
            assert registry.get("transport", "retransmissions").value >= 1
            retransmit_events = [e for e in tracer.events if e.name == "retransmit"]
            assert retransmit_events
            assert retransmit_events[0].fields["retry"] == 1
            # Timestamps are simulated time, strictly positive here.
            assert retransmit_events[0].t > 0


class TestHostInstrumentation:
    def test_touch_ledger_publishes_total_and_per_kind(self):
        with session() as (registry, _):
            ledger = TouchLedger()
            ledger.record("nic-to-buffer", 100)
            ledger.record("buffer-to-app", 100)
            ledger.record("nic-to-buffer", 50)
            assert registry.get("host", "touch_bytes_total").value == 250
            assert registry.get("host", "touch.nic-to-buffer_bytes").value == 150
            assert registry.get("host", "touch.buffer-to-app_bytes").value == 100

    def test_immediate_receiver_counts_deliveries(self):
        with session() as (registry, _):
            receiver = ImmediateReceiver()
            receiver.on_chunk(0.0, make_chunk(units=4, c_sn=0))
            receiver.on_chunk(0.1, make_chunk(units=4, c_sn=4, seed=2))
            assert registry.get("host", "deliveries").value == 2
            assert registry.get("host", "delivered_bytes").value == 32

    def test_reorder_buffer_gauge_high_water(self):
        with session() as (registry, _):
            receiver = ReorderReceiver()
            receiver.on_chunk(0.0, make_chunk(units=4, c_sn=4, t_sn=4, seed=2))
            gauge = registry.get("host", "reorder_buffer_bytes")
            assert gauge.value == 16
            receiver.on_chunk(0.1, make_chunk(units=4, c_sn=0, t_sn=0))
            assert gauge.value == 0  # gap filled, buffer drained
            assert gauge.high_water == 16


def _drive(sharded: bool, conversations: int) -> None:
    """*conversations* one-frame transfers over a back-to-back endpoint pair."""
    if sharded:
        loop = ShardedLoop()
        sender, receiver = ShardedEndpoint(loop, shards=4), ShardedEndpoint(loop, shards=4)
    else:
        loop = EventLoop()
        sender, receiver = ChunkEndpoint(loop), ChunkEndpoint(loop)
    sender.transmit = receiver.receive_packet
    receiver.transmit = sender.receive_packet
    for cid in range(1, conversations + 1):
        connection = sender.open_connection(ConnectionConfig(connection_id=cid))
        connection.send_frame(make_payload(16, seed=cid), end_of_connection=True)
    loop.run()
    assert all(
        receiver.connection(cid).payload_bytes_in == 64
        for cid in range(1, conversations + 1)
    )


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
class TestTelemetryIsBoundedAndIsolated:
    """The registry holds one series per declared instrument, however
    many conversations ran; per-conversation numbers live on the
    ``Connection`` and in the journey/flight rings."""

    def test_series_count_does_not_grow_with_conversations(self, sharded):
        counts = []
        for conversations in (4, 64):
            with session() as (registry, _):
                _drive(sharded, conversations)
                counts.append(len(registry.samples()))
        assert counts[0] == counts[1]

    def test_a_fresh_session_inherits_nothing_from_the_run_before(self, sharded):
        observed = []
        for conversations in (4, 64):
            with session():
                _drive(sharded, conversations)
            with session() as (fresh, _):
                observed.append(
                    (len(fresh.samples()), len(obs_runtime._metric_handles))
                )
        assert observed[0] == observed[1]
        assert not any("conn=" in sample.name for sample in fresh.samples())


class TestNetsimInstrumentation:
    def test_receiver_trace_publish(self):
        with session() as (registry, _):
            trace = ReceiverTrace()
            for position, index in enumerate([3, 2, 1, 0]):
                trace.record(position * 1.0, index, 100)
            values = trace.publish()
            assert values == {
                "arrivals": 4.0,
                "late_arrivals": 3.0,
                "max_displacement": 3.0,
                "disorder_fraction": 0.75,
            }
            assert registry.get("netsim", "trace.max_displacement").value == 3.0
            assert registry.get("netsim", "trace.late_arrivals").value == 3.0

    def test_receiver_trace_publish_without_registry_returns_values(self):
        trace = ReceiverTrace()
        trace.record(0.0, 0, 10)
        assert trace.publish()["arrivals"] == 1.0


@pytest.mark.slow
def test_example_trace_report_end_to_end(tmp_path, capsys):
    """The acceptance path: run the reliable-transfer example with
    --trace, then `python -m repro.obs report` must print per-layer
    counters including data touches and retransmissions."""
    examples = pathlib.Path(__file__).resolve().parents[2] / "examples"
    spec = importlib.util.spec_from_file_location(
        "example_reliable_transfer_obs", examples / "reliable_transfer.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    trace_path = tmp_path / "transfer.jsonl"
    try:
        spec.loader.exec_module(module)
        module.main(["--trace", str(trace_path)])
    finally:
        sys.modules.pop(spec.name, None)
    capsys.readouterr()

    assert trace_path.exists()
    assert main(["report", str(trace_path)]) == 0
    out = capsys.readouterr().out
    for scope in ("== host ==", "== netsim ==", "== transport ==", "== wsc =="):
        assert scope in out
    assert "data_touches" in out
    assert "retransmissions" in out

    records = load_records(trace_path)
    touches = [
        r for r in records if r.get("kind") == "counter" and r.get("name") == "data_touches"
    ]
    assert touches and touches[0]["value"] > 0
    text = summarize(records, scope="transport")
    assert "retransmissions" in text
