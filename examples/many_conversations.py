#!/usr/bin/env python3
"""32 concurrent conversations multiplexed through one chunk endpoint.

The paper's C.ID names "a single, unmultiplexed application-to-
application conversation" — which means a busy host runs *many* of
them, and its receiver must demultiplex chunks from any mixture of
conversations sharing the same packets (Appendix A).  This example
drives 32 staggered bulk and video conversations between one sender
``ChunkEndpoint`` and one receiver ``ChunkEndpoint`` across a shared
lossy bottleneck, then prints the per-connection picture: bytes, touch
budget, retransmissions, and the endpoint's connection-table lifecycle
(including idle eviction reclaiming state afterwards).

Run:  python examples/many_conversations.py [--trace many.jsonl] [--shards N]

With ``--shards N`` the same workload runs on a ``ShardedEndpoint``
pair: N C.ID-hashed worker shards behind one wire and one global budget
pool — same conversations, same delivered bytes, the state partitioned.

With ``--trace PATH`` the run records per-layer counters and lifecycle
events (``conn_established`` / ``conn_closed`` / ``conn_evicted``, each
carrying ``conn=<C.ID>``) via ``repro.obs``; inspect the trace with
``python -m repro.obs report PATH --events conn=7``.  The per-connection
byte and touch numbers printed below come from each ``Connection``.
"""

import argparse
import sys

from repro.app import ConcurrentWorkload, staggered_specs
from repro.netsim import EventLoop, HopSpec, ShardedLoop, build_shared_bottleneck
from repro.obs import session, write_jsonl
from repro.transport import ChunkEndpoint, ShardedEndpoint

CONVERSATIONS = 32
OBJECT_BYTES = 24 * 1024
LOSS = 0.02


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write an observability trace (JSONL) to PATH",
    )
    parser.add_argument(
        "--shards", metavar="N", type=int, default=0,
        help="run the endpoints as N C.ID-hashed worker shards (0 = unsharded)",
    )
    options = parser.parse_args(argv if argv is not None else [])

    loop = ShardedLoop() if options.shards else EventLoop()
    with session(clock=lambda: loop.now) as (registry, tracer):
        _run(loop, options.shards)
        if options.trace is not None:
            records = write_jsonl(options.trace, registry=registry, tracer=tracer)
            print(f"trace: {records} records -> {options.trace}")


def _run(loop: EventLoop | ShardedLoop, shards: int = 0) -> None:
    if shards:
        netloop = loop.member(0)
        # Batch cross-shard egress briefly so envelopes mix shards.
        sender = ShardedEndpoint(
            loop, mtu=1500, shards=shards, idle_timeout=5.0, flush_window=0.001
        )
        receiver = ShardedEndpoint(
            loop, mtu=1500, shards=shards, idle_timeout=5.0, flush_window=0.001
        )
    else:
        netloop = loop
        sender = ChunkEndpoint(loop, mtu=1500, idle_timeout=5.0)
        receiver = ChunkEndpoint(loop, mtu=1500, idle_timeout=5.0)
    net = build_shared_bottleneck(
        netloop,
        pairs=[(receiver.receive_packet, sender.receive_packet)],
        bottleneck=HopSpec(mtu=1500, rate_bps=155e6, delay=0.001, loss_rate=LOSS),
        reverse=HopSpec(mtu=1500, rate_bps=155e6, delay=0.001, loss_rate=LOSS),
        seed=29,
    )
    port = net.ports[0]
    sender.transmit = port.send
    receiver.transmit = port.send_reverse

    work = ConcurrentWorkload(loop, sender, receiver)
    work.launch(
        staggered_specs(CONVERSATIONS, total_bytes=OBJECT_BYTES, stagger=0.003)
    )
    outcomes = work.run()

    print(
        f"{CONVERSATIONS} conversations x {OBJECT_BYTES} bytes over one "
        f"{LOSS:.0%}-loss bottleneck (both ways)"
        + (f", {shards} worker shards" if shards else "")
    )
    print(f"{'C.ID':>5} {'kind':>6} {'bytes':>7} {'t/byte':>7} "
          f"{'frames':>7} {'ok':>3}")
    for outcome in outcomes:
        spec = outcome.spec
        print(
            f"{spec.connection_id:>5} {spec.kind:>6} "
            f"{outcome.bytes_received:>7} {outcome.touches_per_byte:>7.2f} "
            f"{outcome.frames_completed:>7} "
            f"{'yes' if outcome.complete else 'NO':>3}"
        )
    complete = sum(1 for o in outcomes if o.complete)
    print(f"byte-exact: {complete}/{len(outcomes)}")
    print(f"receiver table: {receiver.stats()}")
    print(f"mixed-conversation packets sent: {sender.mixed_packets}")
    if shards:
        per_shard = [
            len(shard.endpoint.table.connections) for shard in receiver.shards
        ]
        print(f"connections per shard: {per_shard}")
        print(f"cross-shard packets sent: {sender.cross_shard_packets}")
        print(f"ingress fan-out packets: {receiver.fanout_packets}")

    # Idle eviction: advance past the idle timeout and sweep; every
    # conversation's placement bytes return to the shared pool (for the
    # sharded pair, every borrowed block goes back to the global pool).
    if shards:
        held_before = receiver.pool.lent_total
    else:
        held_before = receiver.budget.reserved_total
    loop.at(loop.now + 5.0 + 1.0, lambda: None)
    loop.run()
    evicted = receiver.sweep()
    held_after = receiver.pool.lent_total if shards else receiver.budget.reserved_total
    print(
        f"idle sweep evicted {len(evicted)} connections, reclaiming "
        f"{held_before - held_after} bytes "
        f"(pool now holds {held_after})"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
