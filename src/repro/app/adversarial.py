"""Adversarial scenarios and the invariant harness they must survive.

:mod:`repro.netsim.adversary` supplies the mechanics of an attack
(forged overlaps, pathological reorder, paced floods); this module
supplies the *scenarios* — honest conversations sharing an endpoint
pair with a deliberate attacker — and the invariants every scenario is
required to uphold:

1. **No acknowledged-but-unplaced bytes.**  A conversation whose sender
   finished cleanly (everything ACKed, nothing abandoned) delivered a
   byte-identical stream.  Corruption may deny service, never lie.
2. **Bounded memory.**  The placement pool never exceeds its size, and
   the negative caches an attacker can churn (tombstones, refused keys)
   stay within their FIFO bounds.
3. **Inconsistent overlaps are detected**, never silently resolved:
   when forged traffic reached placement, the conflict counters show it.
4. **Honest peers keep a fair share**: conversations the attacker does
   not control complete, with a Jain fairness index above a floor.

A scenario that forges control traffic adds its own teeth: every lie in
a gap report is refused and counted by the sender, and none is resent.

Every scenario is a pure function of its seed (attack traffic included),
so a failing invariant is a replayable counterexample.  The scenarios
are exercised as hypothesis property suites in ``tests/adversarial/``
and measured by ``benchmarks/bench_adversarial.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.app.concurrent import (
    ConcurrentWorkload,
    ConversationOutcome,
    deterministic_payload,
    staggered_specs,
)
from repro.core.chunk import Chunk
from repro.core.packet import Packet
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.host.budget import SharedPlacementBudget
from repro.netsim.adversary import (
    OVERLAP_KINDS,
    AlmostSortedReorder,
    FrameFlood,
    InterruptCoalescingReorder,
    OverlapRewriter,
    ReorderPolicy,
)
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.obs import bind_journey_clock, flight_dump
from repro.transport.acks import build_gap_report, parse_ack_chunk
from repro.transport.connection import ConnectionConfig, build_signaling_chunk
from repro.transport.endpoint import ChunkEndpoint, Connection

__all__ = [
    "AttackReport",
    "jain_fairness",
    "check_invariants",
    "run_overlap_attack",
    "run_reorder_attack",
    "run_signaling_storm",
    "run_cid_churn",
    "run_slow_loris",
    "run_gap_liar",
    "SCENARIOS",
]

#: C.IDs at or above this base belong to the attacker, never to honest
#: conversations (which number from 1).
ATTACKER_CID_BASE = 10_000
#: A T.ID no honest sender reaches (each numbers its TPDUs from 0).
UNSENT_T_ID = 2**32 - 2


def jain_fairness(shares: list[int]) -> float:
    """Jain's fairness index over per-conversation byte shares.

    1.0 means perfectly equal shares; ``1/n`` means one conversation
    took everything.  Empty or all-zero inputs count as perfectly fair
    (nobody was favored).
    """
    total = sum(shares)
    if not shares or total == 0:
        return 1.0
    return total * total / (len(shares) * sum(s * s for s in shares))


@dataclass
class AttackReport:
    """Everything the invariant harness needs to judge one scenario."""

    name: str
    seed: int
    outcomes: list[ConversationOutcome]
    stats: dict[str, int]
    pool_bytes: int
    tombstone_cap: int
    refused_key_cap: int
    #: detection counters aggregated over the receiver's live
    #: connections: forged/ill-formed traffic must land in one of these,
    #: never vanish.
    detections: dict[str, int]
    #: frames the attacker actually delivered downstream (0 means the
    #: attack never engaged and detection counters may stay 0).
    attack_frames: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def honest_shares(self) -> list[int]:
        return [o.bytes_received for o in self.outcomes]

    def honest_fairness(self) -> float:
        return jain_fairness(self.honest_shares())

    def detected(self) -> int:
        return sum(self.detections.values())


def check_invariants(report: AttackReport, fairness_floor: float = 0.8) -> None:
    """Assert the four attack invariants; raises AssertionError with the
    scenario name and seed so a failure replays exactly.

    When a flight recorder is installed, a failing invariant dumps the
    black box (per-conversation provenance rings + metric snapshot)
    before re-raising, so the counterexample ships with its history.
    """
    try:
        _check_invariants(report, fairness_floor)
    except AssertionError:
        flight_dump("invariant", report.name)
        raise


def _check_invariants(report: AttackReport, fairness_floor: float) -> None:
    tag = f"[{report.name} seed={report.seed}]"

    for outcome in report.outcomes:
        cid = outcome.spec.connection_id
        clean = (
            outcome.launched
            and outcome.sender_finished
            and outcome.sender_gave_up == 0
        )
        if clean:
            # Everything this sender sent was acknowledged; an
            # acknowledged TPDU whose bytes are not in place (or are not
            # the sender's bytes) would be silent data loss.
            assert outcome.complete, (
                f"{tag} conversation {cid}: sender finished cleanly but the "
                f"delivered stream is not byte-identical "
                f"(acknowledged-but-unplaced bytes)"
            )

    assert report.stats["budget_peak"] <= report.pool_bytes, (
        f"{tag} placement pool overran: peak {report.stats['budget_peak']} "
        f"> pool {report.pool_bytes}"
    )
    assert report.stats["tombstones"] <= report.tombstone_cap, (
        f"{tag} tombstone set exceeded its bound: "
        f"{report.stats['tombstones']} > {report.tombstone_cap}"
    )
    assert report.extra.get("refused_keys", 0) <= report.refused_key_cap, (
        f"{tag} refused-key cache exceeded its bound"
    )

    if report.name == "gap-liar":
        assert report.extra["gap_reports_refused"] == report.extra["gap_lies"], (
            f"{tag} {report.extra['gap_lies']} lying gap reports, "
            f"{report.extra['gap_reports_refused']} refused"
        )
        assert report.extra["resent"] == 0, f"{tag} a lying gap report drew a resend"

    if report.attack_frames > 0 and report.name == "overlap":
        assert report.detected() > 0, (
            f"{tag} {report.attack_frames} forged frames were delivered but "
            f"no detection counter moved (silently resolved overlap?)"
        )

    fairness = report.honest_fairness()
    assert fairness >= fairness_floor, (
        f"{tag} honest-peer fairness {fairness:.3f} below floor "
        f"{fairness_floor} (shares={report.honest_shares()})"
    )


# ----------------------------------------------------------------------
# Scenario plumbing
# ----------------------------------------------------------------------


def _endpoint_pair(
    loop: EventLoop,
    seed: int,
    budget: SharedPlacementBudget | None = None,
    loss: float = 0.0,
    reorder: ReorderPolicy | None = None,
    wrap_forward: Callable[[Callable[[bytes], None]], Callable[[bytes], None]]
    | None = None,
    idle_timeout: float = 5.0,
    wrap_reverse: Callable[[Callable[[bytes], None]], Callable[[bytes], None]]
    | None = None,
) -> tuple[ChunkEndpoint, ChunkEndpoint, Link]:
    """A sender/receiver endpoint pair joined by two explicit links.

    *wrap_forward* / *wrap_reverse* interpose on the forward / reverse
    delivery path (where an on-path adversary sits); *reorder* plugs a
    delivery-time policy into the forward link.
    """
    bind_journey_clock(lambda: loop.now)
    sender = ChunkEndpoint(loop, mtu=1500, idle_timeout=idle_timeout)
    receiver = ChunkEndpoint(loop, mtu=1500, idle_timeout=idle_timeout)
    if budget is not None:
        receiver.budget = budget
    deliver = receiver.receive_packet
    if wrap_forward is not None:
        deliver = wrap_forward(deliver)
    forward = Link(
        loop,
        deliver,
        rate_bps=622e6,
        delay=0.0005,
        loss_rate=loss,
        rng=substream(seed, "adversarial", "forward"),
        reorder=reorder,
    )
    reverse = Link(
        loop,
        sender.receive_packet if wrap_reverse is None else wrap_reverse(sender.receive_packet),
        rate_bps=622e6,
        delay=0.0005,
        rng=substream(seed, "adversarial", "reverse"),
    )
    sender.transmit = forward.send
    receiver.transmit = reverse.send
    return sender, receiver, forward


@dataclass
class _EvictionSnapshot:
    """Delivery state captured the moment a connection is reclaimed.

    Eviction after a clean close is correct endpoint behavior, but it
    destroys the per-connection stream the harness would otherwise
    inspect post-run — so the harness observes it on the way out via
    the endpoint's ``on_evict`` seam.
    """

    bytes_placed: int
    stream: bytes
    overlap_conflicts: int
    corrupted_tpdus: int
    rejected_placements: int
    signaling_rejected: int


def _install_snapshots(receiver: ChunkEndpoint) -> dict[int, _EvictionSnapshot]:
    snapshots: dict[int, _EvictionSnapshot] = {}

    def hook(connection: Connection) -> None:
        if connection.receiver is None:
            return
        transport = connection.receiver.receiver
        snapshots[connection.connection_id] = _EvictionSnapshot(
            bytes_placed=transport.stream.bytes_placed,
            stream=transport.stream_bytes(),
            overlap_conflicts=transport.overlap_conflict_chunks,
            corrupted_tpdus=transport.corrupted_tpdus(),
            rejected_placements=transport.rejected_placements,
            signaling_rejected=transport.signaling_rejected,
        )

    receiver.on_evict = hook
    return snapshots


def _merge_snapshots(
    outcomes: list[ConversationOutcome],
    snapshots: dict[int, _EvictionSnapshot],
) -> None:
    """Fold evicted conversations' exit snapshots into their outcomes."""
    for outcome in outcomes:
        snap = snapshots.get(outcome.spec.connection_id)
        if snap is None:
            continue
        outcome.bytes_received = max(outcome.bytes_received, snap.bytes_placed)
        if not outcome.complete:
            expected = deterministic_payload(
                outcome.spec.connection_id, outcome.spec.total_bytes
            )
            outcome.complete = snap.stream[: outcome.spec.total_bytes] == expected


def _report(
    name: str,
    seed: int,
    receiver: ChunkEndpoint,
    outcomes: list[ConversationOutcome],
    attack_frames: int = 0,
    extra: dict[str, int] | None = None,
    snapshots: dict[int, _EvictionSnapshot] | None = None,
) -> AttackReport:
    detections = {
        "overlap_conflicts": 0,
        "corrupted_tpdus": 0,
        "rejected_placements": 0,
        "signaling_rejected": 0,
    }
    for connection in receiver.table.connections.values():
        if connection.receiver is None:
            continue
        transport = connection.receiver.receiver
        detections["overlap_conflicts"] += transport.overlap_conflict_chunks
        detections["corrupted_tpdus"] += transport.corrupted_tpdus()
        detections["rejected_placements"] += transport.rejected_placements
        detections["signaling_rejected"] += transport.signaling_rejected
    for snap in (snapshots or {}).values():
        detections["overlap_conflicts"] += snap.overlap_conflicts
        detections["corrupted_tpdus"] += snap.corrupted_tpdus
        detections["rejected_placements"] += snap.rejected_placements
        detections["signaling_rejected"] += snap.signaling_rejected
    merged = {"refused_keys": len(receiver.budget.refused_keys)}
    merged.update(extra or {})
    return AttackReport(
        name=name,
        seed=seed,
        outcomes=outcomes,
        stats=receiver.stats(),
        pool_bytes=receiver.budget.pool_bytes,
        tombstone_cap=receiver.table.evicted_ids.max_entries,
        refused_key_cap=receiver.budget.refused_keys.max_entries,
        detections=detections,
        attack_frames=attack_frames,
        extra=merged,
    )


def _schedule_sweeps(
    loop: EventLoop, endpoint: ChunkEndpoint, every: float, horizon: float
) -> None:
    """Periodic reclamation over a *bounded* horizon (a self-rescheduling
    sweep would keep an otherwise drained simulation alive forever)."""
    ticks = max(int(horizon / every), 1)
    for tick in range(1, ticks + 1):
        loop.at(tick * every, lambda: endpoint.sweep())


def _attacker_data_chunk(cid: int, sn: int, nbytes: int = 4, close: bool = False) -> Chunk:
    """A wire-valid DATA chunk the attacker sends on its own C.ID."""
    units = max(nbytes // 4, 1)
    return Chunk(
        type=ChunkType.DATA,
        size=1,
        length=units,
        c=FramingTuple(cid, sn, close),
        t=FramingTuple(0, sn, close),
        x=FramingTuple(0, sn, close),
        payload=bytes((cid + sn + i) % 256 for i in range(units * 4)),
    )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def run_overlap_attack(
    seed: int = 1,
    conversations: int = 6,
    object_bytes: int = 4096,
    kinds: tuple[str, ...] = OVERLAP_KINDS,
    forge_first: bool = False,
    attack_rate: float = 1.0,
) -> AttackReport:
    """On-path forger injects inconsistent overlapping DATA chunks.

    With ``forge_first=False`` the genuine chunk lands first and every
    forgery must be refused as an overlap conflict — conversations still
    complete.  With ``forge_first=True`` the forgery poisons placement
    first; the honest retransmission then *is* the conflict (or, where
    a forgery reached past the stream's end, a refused end marker), the
    TPDU never verifies, and the sender gives up visibly — denial of
    service, never silent corruption.  Both ways, invariant 3 requires
    the conflict counters to move.
    """
    loop = EventLoop()
    rewriter: list[OverlapRewriter] = []

    def wrap(deliver: Callable[[bytes], None]) -> Callable[[bytes], None]:
        attacker = OverlapRewriter(
            deliver=deliver,
            kinds=kinds,
            attack_rate=attack_rate,
            forge_first=forge_first,
            rng=substream(seed, "overlap", "rewriter"),
        )
        rewriter.append(attacker)
        return attacker.send

    sender, receiver, _ = _endpoint_pair(loop, seed, wrap_forward=wrap)
    snapshots = _install_snapshots(receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(
        staggered_specs(conversations, total_bytes=object_bytes, stagger=0.0005)
    )
    outcomes = work.run()
    _merge_snapshots(outcomes, snapshots)
    return _report(
        "overlap",
        seed,
        receiver,
        outcomes,
        attack_frames=rewriter[0].stats.frames_attacked,
        extra={"forged_chunks": rewriter[0].stats.forged_chunks},
        snapshots=snapshots,
    )


def run_reorder_attack(
    seed: int = 1,
    model: str = "almost-sorted",
    conversations: int = 6,
    object_bytes: int = 4096,
    loss: float = 0.0,
) -> AttackReport:
    """Pathological reorder on the forward path; delivery must survive.

    ``model`` is ``"almost-sorted"`` (bounded local displacement) or
    ``"coalescing"`` (interrupt-coalescing batch inversion).  Reorder is
    not loss: the chunk receiver places by label, so every conversation
    must complete byte-identically with no fairness skew.
    """
    policy: ReorderPolicy
    if model == "almost-sorted":
        policy = AlmostSortedReorder(
            displacement_rate=0.3,
            max_skew=0.004,
            rng=substream(seed, "reorder", "almost-sorted"),
        )
    elif model == "coalescing":
        policy = InterruptCoalescingReorder(window=0.002)
    else:
        raise ValueError(f"unknown reorder model {model!r}")
    loop = EventLoop()
    sender, receiver, _ = _endpoint_pair(loop, seed, loss=loss, reorder=policy)
    snapshots = _install_snapshots(receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(
        staggered_specs(conversations, total_bytes=object_bytes, stagger=0.0005)
    )
    outcomes = work.run()
    _merge_snapshots(outcomes, snapshots)
    displaced = getattr(policy, "displaced", 0) + getattr(policy, "coalesced", 0)
    return _report(
        "reorder",
        seed,
        receiver,
        outcomes,
        extra={"frames_displaced": displaced},
        snapshots=snapshots,
    )


def run_signaling_storm(
    seed: int = 1,
    honest: int = 6,
    object_bytes: int = 4096,
    storm_frames: int = 400,
    storm_interval: float = 2e-4,
) -> AttackReport:
    """A storm of establishment chunks for ever-fresh attacker C.IDs.

    Each storm frame signals a brand-new conversation that never sends
    data.  Periodic sweeps must evict the idle carcasses, the tombstone
    cache must stay bounded, and the honest conversations must finish
    fairly — table and pool pressure is the whole attack.
    """
    loop = EventLoop()
    sender, receiver, forward = _endpoint_pair(loop, seed, idle_timeout=0.05)

    def storm_frame(index: int) -> bytes:
        config = ConnectionConfig(connection_id=ATTACKER_CID_BASE + index)
        return Packet(chunks=[build_signaling_chunk(config)]).encode()

    flood = FrameFlood(
        loop,
        forward.send,
        storm_frame,
        interval=storm_interval,
        count=storm_frames,
    )
    flood.launch()
    horizon = storm_frames * storm_interval + 2.0
    _schedule_sweeps(loop, receiver, every=0.1, horizon=horizon)

    snapshots = _install_snapshots(receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(honest, total_bytes=object_bytes, stagger=0.0005))
    outcomes = work.run()
    _merge_snapshots(outcomes, snapshots)
    return _report(
        "signaling-storm",
        seed,
        receiver,
        outcomes,
        attack_frames=flood.injected,
        extra={"tombstones_dropped": receiver.table.evicted_ids.dropped},
        snapshots=snapshots,
    )


def run_cid_churn(
    seed: int = 1,
    honest: int = 6,
    object_bytes: int = 4096,
    churn_cycles: int = 300,
    churn_interval: float = 2e-4,
    tombstone_cap: int | None = None,
) -> AttackReport:
    """Establish/close churn across attacker C.IDs to grind tombstones.

    Every cycle signals a fresh attacker conversation and immediately
    closes it (DATA chunk with C.ST), so sweeps evict it into the
    tombstone set.  The set must stay FIFO-bounded no matter how many
    identifiers the attacker burns, with overflow counted, and the
    refusal counters for late traffic must stay exact for C.IDs whose
    tombstones survive.
    """
    loop = EventLoop()
    sender, receiver, forward = _endpoint_pair(loop, seed, idle_timeout=0.05)
    receiver.close_linger = 0.02
    if tombstone_cap is not None:
        receiver.table.evicted_ids.max_entries = tombstone_cap

    def churn_frame(index: int) -> bytes:
        cid = ATTACKER_CID_BASE + index
        config = ConnectionConfig(connection_id=cid)
        chunks = [
            build_signaling_chunk(config),
            _attacker_data_chunk(cid, 0, close=True),
        ]
        return Packet(chunks=chunks).encode()

    flood = FrameFlood(
        loop,
        forward.send,
        churn_frame,
        interval=churn_interval,
        count=churn_cycles,
    )
    flood.launch()
    horizon = churn_cycles * churn_interval + 2.0
    _schedule_sweeps(loop, receiver, every=0.05, horizon=horizon)

    snapshots = _install_snapshots(receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(honest, total_bytes=object_bytes, stagger=0.0005))
    outcomes = work.run()
    _merge_snapshots(outcomes, snapshots)
    return _report(
        "cid-churn",
        seed,
        receiver,
        outcomes,
        attack_frames=flood.injected,
        extra={"tombstones_dropped": receiver.table.evicted_ids.dropped},
        snapshots=snapshots,
    )


def run_slow_loris(
    seed: int = 1,
    honest: int = 6,
    attackers: int = 24,
    object_bytes: int = 4096,
    trickle_interval: float = 0.02,
    trickle_rounds: int = 120,
    pool_bytes: int = 512 * 1024,
) -> AttackReport:
    """Half-open conversations trickle bytes to pin fair shares forever.

    Each attacker conversation establishes, then drips one tiny DATA
    chunk per interval — enough to refresh ``last_activity`` so idle
    eviction never fires, while its registration keeps dividing the
    shared pool.  Progress policing (`min_progress_bytes`) must evict
    the tricklers on throughput grounds, freeing the pool so the honest
    conversations complete fairly.
    """
    loop = EventLoop()
    budget = SharedPlacementBudget(pool_bytes=pool_bytes, min_share_bytes=8 * 1024)
    sender, receiver, forward = _endpoint_pair(
        loop, seed, budget=budget, idle_timeout=5.0
    )
    receiver.min_progress_bytes = 256
    receiver.progress_window = 0.25

    def trickle_frame(index: int) -> bytes:
        attacker = index % attackers
        round_no = index // attackers
        cid = ATTACKER_CID_BASE + attacker
        chunks: list[Chunk] = []
        if round_no == 0:
            chunks.append(build_signaling_chunk(ConnectionConfig(connection_id=cid)))
        chunks.append(_attacker_data_chunk(cid, round_no))
        return Packet(chunks=chunks).encode()

    flood = FrameFlood(
        loop,
        forward.send,
        trickle_frame,
        interval=trickle_interval / attackers,
        count=attackers * trickle_rounds,
    )
    flood.launch()
    horizon = trickle_rounds * trickle_interval + 2.0
    _schedule_sweeps(loop, receiver, every=0.25, horizon=horizon)

    snapshots = _install_snapshots(receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    # Honest conversations start after the tricklers have pinned shares,
    # so completing at all proves the policing reclaimed the pool.
    specs = staggered_specs(honest, total_bytes=object_bytes, stagger=0.0005)
    work.launch(specs)
    outcomes = work.run()
    _merge_snapshots(outcomes, snapshots)
    return _report(
        "slow-loris",
        seed,
        receiver,
        outcomes,
        attack_frames=flood.injected,
        extra={"stalled_evictions": receiver.stalled_evictions},
        snapshots=snapshots,
    )


def run_gap_liar(
    seed: int = 1,
    conversations: int = 6,
    object_bytes: int = 4096,
) -> AttackReport:
    """An on-path forger on the ACK path lies in gap reports.

    Around every genuine ACK chunk it injects, per TPDU acknowledged, a
    report whose range runs past the TPDU's end (ahead of the ACK, while
    the TPDU is still timed) and one on the same TPDU behind the ACK
    (gaps in an acknowledged TPDU), and one report on a T.ID the sender
    never sent.  The path loses nothing, so any resend is the liar's
    doing: the sender must refuse and count every lie and resend nothing,
    and the conversations complete as if the liar were not there.
    """
    loop = EventLoop()
    lies = frames = 0

    def wrap(deliver: Callable[[bytes], None]) -> Callable[[bytes], None]:
        def forge(frame: bytes) -> None:
            nonlocal lies, frames
            chunks: list[Chunk] = []
            for chunk in Packet.decode(frame).chunks:
                acked = parse_ack_chunk(chunk) if chunk.type is ChunkType.ACK else []
                cid = chunk.c_id
                lying = [build_gap_report(cid, t_id, [(0, 1 << 20)]) for t_id in acked]
                lying.append(chunk)
                lying += [build_gap_report(cid, t_id, [(0, 1)]) for t_id in acked]
                if acked:
                    lying.append(build_gap_report(cid, UNSENT_T_ID, [(0, 1)]))
                lies += len(lying) - 1
                chunks += lying
            frames += len(chunks) > len(Packet.decode(frame).chunks)
            deliver(Packet(chunks).encode())

        return forge

    sender, receiver, _ = _endpoint_pair(loop, seed, wrap_reverse=wrap)
    snapshots = _install_snapshots(receiver)
    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(staggered_specs(conversations, total_bytes=object_bytes, stagger=0.0005))
    outcomes = work.run()
    _merge_snapshots(outcomes, snapshots)
    sessions = [c.sender for c in sender.table.connections.values() if c.sender is not None]
    return _report(
        "gap-liar",
        seed,
        receiver,
        outcomes,
        attack_frames=frames,
        extra={
            "gap_lies": lies,
            "gap_reports_refused": sum(s.gap_reports_refused for s in sessions),
            "resent": sum(s.retransmissions for s in sessions),
        },
        snapshots=snapshots,
    )


#: name → zero-config scenario runner (tests and benchmarks iterate it).
SCENARIOS: dict[str, Callable[[int], AttackReport]] = {
    "overlap": lambda seed: run_overlap_attack(seed),
    "overlap-poison-first": lambda seed: run_overlap_attack(seed, forge_first=True),
    "reorder-almost-sorted": lambda seed: run_reorder_attack(seed, "almost-sorted"),
    "reorder-coalescing": lambda seed: run_reorder_attack(seed, "coalescing"),
    "signaling-storm": lambda seed: run_signaling_storm(seed),
    "cid-churn": lambda seed: run_cid_churn(seed),
    "slow-loris": lambda seed: run_slow_loris(seed),
    "gap-liar": lambda seed: run_gap_liar(seed),
}
