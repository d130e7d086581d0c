"""The six workloads of the end-to-end benchmark.

Each workload has three steps the driver calls in turn:

``build(seed, scale)``
    Set-up, untimed: seeded payloads, frame slices, pre-encoded input
    packets and arrival orders.  The seed reaches only these generators;
    the program under test sees payload bytes, RNG substreams and packet
    orders, never a workload name.
``run(inputs)``
    The timed pass.  Builds sender/receiver/loop state fresh, drives it
    closed-loop (a plain ``for`` or the discrete-event loop) and returns
    whatever ``check`` needs.  The only benchmark code in here is the
    loop itself and the two clock reads around each packet callback.
``check(inputs, state)``
    Untimed: the correctness gate and the counts, read from public
    attributes only.

The network is :mod:`repro.netsim` — simulated.  Nothing here measures a
link rate or a wire latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Sequence

from repro.core import packet as packet_mod
from repro.core.types import ChunkType
from repro.netsim.adversary import AlmostSortedReorder, InterruptCoalescingReorder
from repro.netsim.bottleneck import build_shared_bottleneck
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.netsim.shardloop import ShardedLoop
from repro.netsim.topology import HopSpec, build_chunk_path
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.reliability import AdaptiveTpduPolicy, ReliableReceiver, ReliableSender
from repro.transport.sender import ChunkTransportSender
from repro.transport.shard import ShardedEndpoint

__all__ = ["WORKLOADS", "PassResult"]

KIB = 1024
UNIT_BYTES = 4

@dataclass
class PassResult:
    """What one pass delivered, as judged by ``check``."""

    payload_bytes: int  #: delivered byte-exact and WSC-2-verified
    attempted: int  #: operations (TPDUs or conversations)
    failed: int
    touches_per_byte: float
    #: read off public attributes; must repeat exactly from pass to pass
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def seeded_payload(seed: int, *labels: object, nominal: int) -> bytes:
    """Random bytes, a seeded few units short of *nominal*.

    The tail makes sizes — and so ``wire_efficiency`` — a function of the
    seed like every other input, at well under 1% of the volume.
    """
    rng = substream(seed, *labels, "payload")
    short = rng.randrange(max(1, min(64, nominal // (32 * UNIT_BYTES))))
    return rng.randbytes(nominal - UNIT_BYTES * short)


def slices(payload: bytes, size: int) -> list[bytes]:
    return [payload[start:start + size] for start in range(0, len(payload), size)]


class StratifiedDraws:
    """A stand-in for a link's ``rng``: every block of ``random()`` values
    covers [0, 1) evenly, in seeded order.

    A link drawing its losses from independent uniforms loses 42 +- 6
    of 1400 packets, and the retransmitted work of a short transfer
    swings by a fifth from seed to seed.  Drawn from here the link loses
    its stated share of every block, whatever the seed; the seed only
    decides *which* packets go.
    """

    block = 200

    def __init__(self, seed: int, *labels: object) -> None:
        self._order = substream(seed, *labels)
        self._pending: list[float] = []

    def random(self) -> float:
        if not self._pending:
            self._pending = [(index + 0.5) / self.block for index in range(self.block)]
            self._order.shuffle(self._pending)
        return self._pending.pop()


def _timed(callee: Callable[[bytes], Any], samples: list[int]) -> Callable[[bytes], None]:
    """The packet callback handed to a link, with its service time sampled."""

    def deliver(frame: bytes) -> None:
        start = perf_counter_ns()
        callee(frame)
        samples.append(perf_counter_ns() - start)

    return deliver


def _single_connection_result(
    receiver: ChunkTransportReceiver,
    payload: bytes,
    tpdus: int,
    counts: dict[str, int],
    problems: Sequence[str] = (),
) -> PassResult:
    """The correctness gate for one connection, on top of whatever
    *problems* the workload already found.  Any problem fails every
    TPDU: a stream that is wrong somewhere delivered nothing usable."""
    problems = list(problems)
    touches = receiver.stream.bytes_placed / len(payload)
    if receiver.stream_bytes() != payload:
        problems.append("delivered stream differs from the generated payload")
    if receiver.pending_tpdus():
        problems.append(f"{len(receiver.pending_tpdus())} TPDUs still pending")
    if receiver.corrupted_tpdus():
        problems.append(f"{receiver.corrupted_tpdus()} corrupted verdicts")
    if touches != 1.0:
        problems.append(f"touches_per_byte {touches} != 1.0")
    failed = tpdus if problems else max(0, tpdus - receiver.verified_tpdus())
    return PassResult(
        payload_bytes=0 if failed else len(payload),
        attempted=tpdus,
        failed=failed,
        touches_per_byte=touches,
        problems=problems,
        counts={
            "packets": receiver.packets_received,
            "chunks_received": receiver.chunks_received,
            "transport.duplicate_chunks": receiver.duplicate_chunks,
            "wsc.tpdus_verified": receiver.verified_tpdus(),
            "wsc.tpdus_rejected": receiver.corrupted_tpdus(),
            **counts,
        },
    )


class BulkSend:
    """Sender path alone: form, protect, pack, encode — no network."""

    name = "bulk_send"
    operation = "tpdu"
    claims = ("core.form", "core.encode", "wsc.encode", "transport.send")
    absent = ("core.decode", "transport.recv", "netsim.loop")
    nominal = 192 * KIB
    frame_bytes = 64 * KIB
    tpdu_units = 256
    mtu = 1500

    def build(self, seed: int, scale: float) -> dict[str, Any]:
        payload = seeded_payload(seed, self.name, nominal=int(self.nominal * scale))
        return {"payload": payload, "frames": slices(payload, self.frame_bytes)}

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        frames = inputs["frames"]
        sender = ChunkTransportSender(
            ConnectionConfig(connection_id=7, tpdu_units=self.tpdu_units)
        )
        wire: list[bytes] = []
        service: list[int] = []
        final = len(frames) - 1
        for index, frame in enumerate(frames):
            start = perf_counter_ns()
            chunks = sender.send_frame(frame, end_of_connection=index == final)
            for packet in packet_mod.pack_chunks(chunks, self.mtu):
                wire.append(packet.encode())
            service.append(perf_counter_ns() - start)
        return {"sender": sender, "wire": wire, "service": service}

    def check(self, inputs: dict[str, Any], state: dict[str, Any]) -> PassResult:
        # No receiver ran in the pass, so one runs here: the wire bytes
        # count as goodput only if they reassemble and verify.
        receiver = ChunkTransportReceiver()
        for frame in state["wire"]:
            receiver.receive_packet(frame)
        tpdus = state["sender"].tpdus_sent
        return _single_connection_result(
            receiver, inputs["payload"], tpdus,
            {"wire_bytes": sum(map(len, state["wire"])), "transport.tpdus_sent": tpdus},
        )


class RecvDisorder:
    """Receiver path alone, on small packets arriving out of order."""

    name = "recv_disorder"
    operation = "tpdu"
    claims = ("core.decode", "core.virtual", "wsc.verify", "transport.recv", "host.place")
    absent = ("core.form", "core.encode", "wsc.encode", "transport.send", "netsim.loop")
    nominal = 512 * KIB
    frame_bytes = 64 * KIB
    tpdu_units = 256
    sender_mtu = 1500
    mtu = 296
    link_bps = 155e6
    duplicate_share = 0.02

    def build(self, seed: int, scale: float) -> dict[str, Any]:
        payload = seeded_payload(seed, self.name, nominal=int(self.nominal * scale))
        frames = slices(payload, self.frame_bytes)
        sender = ChunkTransportSender(
            ConnectionConfig(connection_id=9, tpdu_units=self.tpdu_units)
        )
        chunks = [sender.establishment_chunk()]
        for index, frame in enumerate(frames):
            chunks += sender.send_frame(frame, end_of_connection=index == len(frames) - 1)
        # Re-enveloped for a small-MTU network without touching a chunk
        # header more than fragmentation needs (Figure 4, method 2).
        packets = packet_mod.repack(packet_mod.pack_chunks(chunks, self.sender_mtu), self.mtu)
        wire = [packet.encode() for packet in packets]
        # Arrival order: a coalescing NIC releases each 1 ms batch newest
        # first (Wu et al.), and a fifth of the packets are displaced a
        # little further (Istrate's almost-sorted permutations).
        coalesce = InterruptCoalescingReorder(window=0.001)
        almost = AlmostSortedReorder(
            displacement_rate=0.2, max_skew=0.002, rng=substream(seed, self.name, "reorder")
        )
        tx_time = self.mtu * 8 / self.link_bps
        release = [
            almost.release_time(coalesce.release_time(index * tx_time, 0.0), 0.0)
            for index in range(len(wire))
        ]
        arrivals = [wire[i] for i in sorted(range(len(wire)), key=lambda i: (release[i], i))]
        rng = substream(seed, self.name, "duplicates")
        picks = rng.sample(range(len(arrivals)), k=int(len(arrivals) * self.duplicate_share))
        for index in sorted(picks, reverse=True):
            arrivals.insert(index + 1 + rng.randrange(64), arrivals[index])
        return {"payload": payload, "arrivals": arrivals, "tpdus": sender.tpdus_sent}

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        receiver = ChunkTransportReceiver()
        service: list[int] = []
        for frame in inputs["arrivals"]:
            start = perf_counter_ns()
            receiver.receive_packet(frame)
            service.append(perf_counter_ns() - start)
        return {"receiver": receiver, "service": service}

    def check(self, inputs: dict[str, Any], state: dict[str, Any]) -> PassResult:
        return _single_connection_result(
            state["receiver"], inputs["payload"], inputs["tpdus"],
            {"wire_bytes": sum(map(len, inputs["arrivals"]))},
        )


class SmallFrames:
    """Loopback send -> receive at the smallest message size."""

    name = "small_frames"
    operation = "tpdu"
    claims = (
        "core.form", "core.encode", "core.decode", "wsc.encode", "wsc.verify",
        "transport.send", "transport.recv", "host.place",
    )
    absent = ("netsim.loop", "core.fragment")
    nominal = 64 * KIB
    frame_bytes = 64
    tpdu_units = 16
    mtu = 296

    def build(self, seed: int, scale: float) -> dict[str, Any]:
        payload = seeded_payload(seed, self.name, nominal=int(self.nominal * scale))
        return {"payload": payload, "frames": slices(payload, self.frame_bytes)}

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        frames = inputs["frames"]
        sender = ChunkTransportSender(
            ConnectionConfig(connection_id=11, tpdu_units=self.tpdu_units)
        )
        receiver = ChunkTransportReceiver()
        service: list[int] = []
        wire_bytes = frames_wrong = 0
        final = len(frames) - 1
        for index, frame in enumerate(frames):
            chunks = sender.send_frame(frame, end_of_connection=index == final)
            for packet in packet_mod.pack_chunks(chunks, self.mtu):
                encoded = packet.encode()
                wire_bytes += len(encoded)
                start = perf_counter_ns()
                events = receiver.receive_packet(encoded)
                service.append(perf_counter_ns() - start)
                # The application's side of a loopback pair: take each
                # frame as it completes, acknowledge each verified TPDU.
                for frame_id in events.completed_frames:
                    if receiver.frames.pop_frame(frame_id) != frames[frame_id]:
                        frames_wrong += 1
                for verdict in events.verdicts:
                    sender.acknowledge(verdict.t_id)
        return {
            "sender": sender, "receiver": receiver, "service": service,
            "wire_bytes": wire_bytes, "frames_wrong": frames_wrong,
        }

    def check(self, inputs: dict[str, Any], state: dict[str, Any]) -> PassResult:
        receiver = state["receiver"]
        tpdus = state["sender"].tpdus_sent
        problems = []
        if state["frames_wrong"] or receiver.frames.frames:
            problems.append(
                f"{state['frames_wrong']} frames delivered wrong, "
                f"{len(receiver.frames.frames)} never completed"
            )
        return _single_connection_result(
            receiver, inputs["payload"], tpdus,
            {"wire_bytes": state["wire_bytes"], "transport.tpdus_sent": tpdus},
            problems,
        )


class LossyPath:
    """One reliable conversation across fragmenting, lossy hops."""

    name = "lossy_path"
    operation = "tpdu"
    claims = (
        "core.form", "core.fragment", "wsc.verify", "transport.send", "transport.recv",
        "netsim.loop", "netsim.link", "netsim.router",
    )
    absent = ("transport.demux", "transport.shard_route")
    nominal = 192 * KIB
    frame_bytes = 4 * KIB
    frame_interval = 0.005
    tpdu_units = 1024

    def build(self, seed: int, scale: float) -> dict[str, Any]:
        payload = seeded_payload(seed, self.name, nominal=int(self.nominal * scale))
        return {"payload": payload, "frames": slices(payload, self.frame_bytes), "seed": seed}

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        frames, seed = inputs["frames"], inputs["seed"]
        loop = EventLoop()
        service: list[int] = []

        def deliver_acks(frame: bytes) -> None:
            # ReliableSender takes ACK chunks; with no endpoint in front
            # of it the driver opens the reverse link's envelopes.
            for chunk in packet_mod.Packet.decode(frame).chunks:
                if chunk.type is ChunkType.ACK:
                    sender.handle_ack_chunk(chunk)

        reverse = Link(
            loop, deliver=deliver_acks, mtu=1500, loss_rate=0.025,
            rng=StratifiedDraws(seed, self.name, "reverse"),
        )
        receiver = ReliableReceiver(transmit=reverse.send)
        path = build_chunk_path(
            loop,
            [
                HopSpec(mtu=4096, dup_rate=0.01),
                HopSpec(mtu=1500, loss_rate=0.05),
                HopSpec(mtu=296, loss_rate=0.025),
            ],
            deliver=_timed(receiver.receive_packet, service),
        )
        # One kind of draw per link, so each link's share is exact.
        for position, link in enumerate(path.links):
            link.rng = StratifiedDraws(seed, self.name, "hop", position)
        sender = ReliableSender(
            loop, path.send,
            ConnectionConfig(connection_id=12, tpdu_units=self.tpdu_units),
            mtu=path.first_mtu, rto=0.06,
            policy=AdaptiveTpduPolicy(
                min_units=64, max_units=2048, grow_after=4, grow_step=128
            ),
        )
        final = len(frames) - 1
        for index, frame in enumerate(frames):
            loop.at(index * self.frame_interval, _frame_sender(sender, frame, index == final))
        path.run()
        return {
            "loop": loop, "sender": sender, "receiver": receiver, "path": path,
            "reverse": reverse, "service": service,
        }

    def check(self, inputs: dict[str, Any], state: dict[str, Any]) -> PassResult:
        sender, session, path = state["sender"], state["receiver"], state["path"]
        receiver = session.receiver
        tpdus = sender.sender.tpdus_sent
        problems = []
        if sender.gave_up or not sender.finished:
            problems.append(
                f"sender gave up {len(sender.gave_up)} TPDUs, "
                f"{len(sender.outstanding)} unacknowledged"
            )
        links = [*path.links, state["reverse"]]
        return _single_connection_result(
            receiver, inputs["payload"], tpdus,
            {
                "wire_bytes": sender.bytes_sent + state["reverse"].stats.bytes_in,
                "core.chunks_split": sum(r.stats.chunks_split for r in path.routers),
                "transport.tpdus_sent": tpdus,
                "transport.retransmissions": sender.retransmissions,
                "transport.acks_sent": session.acks_sent,
                "transport.gave_up": len(sender.gave_up),
                "netsim.events": state["loop"].events_processed,
                "netsim.packets_dropped": sum(link.stats.frames_lost for link in links),
                "netsim.packets_duplicated": sum(
                    link.stats.frames_duplicated for link in links
                ),
                "netsim.router_frames_out": sum(r.stats.frames_out for r in path.routers),
            },
            problems,
        )


def _frame_sender(sender: Any, frame: bytes, last: bool) -> Callable[[], None]:
    def send() -> None:
        sender.send_frame(frame, end_of_connection=last)

    return send


class _Conversations:
    """Shared by the two endpoint workloads: many staggered conversations
    between one sending and one receiving endpoint over a shared, lossy
    622 Mb/s bottleneck; every fourth conversation is paced "video"."""

    operation = "conversation"
    first_cid = 1
    stagger = 0.0005
    video_every = 4
    video_frames = 4
    tpdu_units = 64
    loss = 0.01
    idle_timeout = 5.0
    conversations: int
    conversation_bytes: int
    name: str

    def build(self, seed: int, scale: float) -> dict[str, Any]:
        count = max(8, int(self.conversations * scale))
        payloads = {
            cid: seeded_payload(seed, self.name, cid, nominal=self.conversation_bytes)
            for cid in range(self.first_cid, self.first_cid + count)
        }
        plan = []
        for index, (cid, payload) in enumerate(payloads.items()):
            video = index % self.video_every == self.video_every - 1
            size = -(-len(payload) // self.video_frames) if video else len(payload)
            size += -size % UNIT_BYTES
            plan.append((index * self.stagger, cid, slices(payload, size)))
        return {"payloads": payloads, "plan": plan, "seed": seed}

    def endpoints(self) -> tuple[Any, Any, Any, Any]:
        """(loop, network loop, sending endpoint, receiving endpoint)."""
        raise NotImplementedError

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        loop, net_loop, sender, receiver = self.endpoints()
        service: list[int] = []
        net = build_shared_bottleneck(
            net_loop,
            pairs=[(_timed(receiver.receive_packet, service), sender.receive_packet)],
            bottleneck=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005, loss_rate=self.loss),
            reverse=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005),
            seed=inputs["seed"],
        )
        sender.transmit = net.ports[0].send
        receiver.transmit = net.ports[0].send_reverse

        def starter(cid: int, frames: list[bytes]) -> Callable[[], None]:
            def start() -> None:
                connection = sender.open_connection(
                    ConnectionConfig(connection_id=cid, tpdu_units=self.tpdu_units)
                )
                final = len(frames) - 1
                for index, frame in enumerate(frames):
                    loop.schedule(
                        index * self.stagger, _frame_sender(connection, frame, index == final)
                    )

            return start

        for start_time, cid, frames in inputs["plan"]:
            loop.at(start_time, starter(cid, frames))
        loop.run()
        return {
            "loop": loop, "sender": sender, "receiver": receiver, "net": net,
            "service": service,
        }

    def pool_state(self, receiver: Any) -> tuple[int, int, int, int]:
        """(bytes still held, peak bytes, refusals, pool lends)."""
        raise NotImplementedError

    def check(self, inputs: dict[str, Any], state: dict[str, Any]) -> PassResult:
        loop, sender, receiver = state["loop"], state["sender"], state["receiver"]
        failed = 0
        touched = placed = 0
        verified = rejected = duplicates = chunks = tpdus = retransmissions = gave_up = 0
        problems: list[str] = []
        for cid, payload in inputs["payloads"].items():
            source, sink = sender.connection(cid), receiver.connection(cid)
            if source is not None and source.sender is not None:
                tpdus += source.sender.sender.tpdus_sent
                retransmissions += source.sender.retransmissions
                gave_up += len(source.sender.gave_up)
            ok = (
                source is not None and source.finished and not source.sender.gave_up
                and sink is not None and sink.receiver is not None
                and sink.stream_bytes() == payload
                and sink.touches_per_byte() == 1.0
                and not sink.receiver.receiver.pending_tpdus()
                and not sink.receiver.receiver.corrupted_tpdus()
            )
            if not ok:
                failed += 1
                continue
            inner = sink.receiver.receiver
            touched += sink.ledger.total_bytes_moved
            placed += inner.stream.bytes_placed
            verified += inner.verified_tpdus()
            rejected += inner.corrupted_tpdus()
            duplicates += inner.duplicate_chunks
            chunks += inner.chunks_received
        if failed:
            problems.append(f"{failed} conversations not delivered byte-exact and verified")
        sim_end = loop.now
        events = loop.events_processed
        # Everything is closed and quiescent: one sweep past the idle
        # timeout must hand the whole table and pool back.
        loop.at(sim_end + self.idle_timeout + 1.0, lambda: None)
        loop.run()
        receiver.sweep()
        sender.sweep()
        held, peak, refusals, lends = self.pool_state(receiver)
        if held or receiver.stats()["active_connections"]:
            problems.append(f"idle sweep left {held} bytes reserved")
            failed = len(inputs["payloads"])
        delivered = sum(map(len, inputs["payloads"].values())) if not failed else 0
        net = state["net"]
        links = [net.forward_link, net.reverse_link, net.ports[0].access]
        stats = sender.stats()
        return PassResult(
            payload_bytes=delivered,
            attempted=len(inputs["payloads"]),
            failed=failed,
            touches_per_byte=touched / placed if placed else 0.0,
            problems=problems,
            counts={
                "wire_bytes": sender.bytes_sent + receiver.bytes_sent,
                "packets": net.frames_forward,
                "chunks_received": chunks,
                "wsc.tpdus_verified": verified,
                "wsc.tpdus_rejected": rejected,
                "transport.duplicate_chunks": duplicates,
                "transport.mixed_packets": stats["mixed_packets"],
                "transport.cross_shard_packets": stats.get("cross_shard_packets", 0),
                "transport.tpdus_sent": tpdus,
                "transport.retransmissions": retransmissions,
                "transport.acks_sent": receiver.stats()["packets_sent"],
                "transport.gave_up": gave_up,
                "host.budget_refusals": refusals,
                "host.peak_pool_bytes": peak,
                "host.pool_lends": lends,
                "netsim.events": events,
                "netsim.packets_dropped": sum(link.stats.frames_lost for link in links),
                "netsim.packets_duplicated": sum(
                    link.stats.frames_duplicated for link in links
                ),
            },
        )


class Mux256(_Conversations):
    """Many flows through one unsharded endpoint pair."""

    name = "mux_256"
    claims = (
        "core.form", "transport.send", "transport.demux", "host.budget",
        "netsim.loop", "netsim.link",
    )
    absent = ("transport.shard_route", "netsim.router")
    conversations = 256
    conversation_bytes = KIB

    def endpoints(self) -> tuple[Any, Any, Any, Any]:
        loop = EventLoop()
        sender = ChunkEndpoint(loop, mtu=1500, idle_timeout=self.idle_timeout)
        receiver = ChunkEndpoint(loop, mtu=1500, idle_timeout=self.idle_timeout)
        return loop, loop, sender, receiver

    def pool_state(self, receiver: Any) -> tuple[int, int, int, int]:
        budget = receiver.budget
        return budget.reserved_total, budget.peak_reserved, budget.refusals, 0


class Sharded1k(_Conversations):
    """State scale: a thousand short conversations over eight shards."""

    name = "sharded_1k"
    claims = (
        "transport.demux", "transport.shard_route", "host.budget", "netsim.loop",
    )
    absent = ("netsim.router",)
    conversations = 1000
    conversation_bytes = KIB // 4
    shards = 8
    flush_window = 0.001

    def endpoints(self) -> tuple[Any, Any, Any, Any]:
        loop = ShardedLoop()
        sender, receiver = (
            ShardedEndpoint(
                loop, mtu=1500, shards=self.shards, idle_timeout=self.idle_timeout,
                flush_window=self.flush_window,
            )
            for _ in range(2)
        )
        return loop, loop.member(0), sender, receiver

    def pool_state(self, receiver: Any) -> tuple[int, int, int, int]:
        pool = receiver.pool
        refusals = pool.refusals + sum(s.endpoint.budget.refusals for s in receiver.shards)
        return pool.lent_total, pool.peak_lent, refusals, pool.lends


WORKLOADS = {
    workload.name: workload
    for workload in (BulkSend(), RecvDisorder(), SmallFrames(), LossyPath(), Mux256(), Sharded1k())
}
