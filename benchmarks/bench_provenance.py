"""PROVENANCE: label-keyed journey tracking and its (zero) idle cost.

The paper's label — C.ID plus position — travels with every chunk, so
provenance needs no extra per-chunk state on the hot path: each layer
emits one record keyed by the label it already carries.  This bench
pins the two claims that make the subsystem shippable:

- **installed**, a seeded lossy transfer yields a complete journey for
  every chunk (each placed exactly once) at a deterministic
  records-per-*simulated*-second rate (wall time never enters the
  figures — they must be byte-identical across runs and machines);
- **uninstalled**, the chunk hot path emits nothing at all: the one
  read of the installed tracker finds None, the argument packing is
  never reached, and zero records exist to count (the ``uninstalled_records == 0`` figure is
  gated by a budget in ``tests/figures/``).
"""

from __future__ import annotations

from _common import print_table, register_bench, scaled
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.rng import substream
from repro.obs.provenance import JourneyTracker, active_journey, journey_session
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint


def _transfer(nbytes: int, loss: float, seed: int) -> float:
    """One reliable object through an endpoint pair; returns sim time."""
    from repro.obs.provenance import bind_journey_clock

    loop = EventLoop()
    bind_journey_clock(lambda: loop.now)
    sender = ChunkEndpoint(loop, mtu=1500)
    receiver = ChunkEndpoint(loop, mtu=1500)
    forward = Link(
        loop, receiver.receive_packet, rate_bps=622e6, delay=0.0005,
        loss_rate=loss, rng=substream(seed, "bench-prov", "forward"),
    )
    reverse = Link(
        loop, sender.receive_packet, rate_bps=622e6, delay=0.0005,
        rng=substream(seed, "bench-prov", "reverse"),
    )
    sender.transmit = forward.send
    receiver.transmit = reverse.send
    connection = sender.open_connection(ConnectionConfig(connection_id=1))
    payload = bytes(i & 0xFF for i in range(nbytes))
    connection.send_frame(payload, end_of_connection=True)
    loop.run()
    assert receiver.connection(1).stream_bytes() == payload
    return loop.now


def measure(nbytes: int = 65536, loss: float = 0.05, seed: int = 2) -> dict:
    """Installed-path figures: record volume, journeys, sim-time rate."""
    with journey_session() as tracker:
        sim_seconds = _transfer(nbytes, loss, seed)
        journeys = tracker.journeys(c_id=1)
        placed = sum(j.stages.count("placed") for j in journeys)
        retransmits = sum(
            1 for r in tracker.records if r.stage == "retransmit"
        )
        return {
            "records": len(tracker.records),
            "dropped": tracker.dropped,
            "journeys": len(journeys),
            "placed": placed,
            "retransmits": retransmits,
            "sim_seconds": sim_seconds,
            # Simulated-time rate: deterministic, unlike wall clock.
            "records_per_sim_second": len(tracker.records) / sim_seconds,
        }


def measure_uninstalled(nbytes: int = 65536, seed: int = 2) -> dict:
    """The same transfer with no journey tracker installed.

    Counts *seam invocations*, not records: every instrumented call
    site reads the installed tracker once (``obs_provenance._tracker``)
    and skips the record while it is None, so no tracker's
    emit/chunk/frame method may even be entered — the hot path's entire
    provenance cost is one ``is None`` test.
    """
    calls = 0

    def count(*args: object, **kwargs: object) -> None:
        nonlocal calls
        calls += 1

    assert active_journey() is None
    originals = {
        name: getattr(JourneyTracker, name) for name in ("emit", "chunk", "frame")
    }
    try:
        for name in originals:
            setattr(JourneyTracker, name, count)
        _transfer(nbytes, 0.0, seed)
        return {"uninstalled_records": calls}
    finally:
        for name, original in originals.items():
            setattr(JourneyTracker, name, original)


def test_every_chunk_places_exactly_once():
    figures = measure()
    assert figures["journeys"] > 0
    assert figures["placed"] == figures["journeys"]
    assert figures["dropped"] == 0


def test_lossy_run_records_retransmissions():
    assert measure()["retransmits"] > 0


def test_figures_are_deterministic():
    assert measure() == measure()


def test_uninstalled_run_is_silent(bare_obs):
    assert measure_uninstalled() == {"uninstalled_records": 0}


def test_emit_throughput(benchmark):
    def run():
        tracker = JourneyTracker()
        for sn in range(2000):
            tracker.emit("formed", 1, sn * 32, 32, t=sn * 1e-5, t_id=0, x_id=0)
        return len(tracker.records)

    assert benchmark(run) == 2000


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: journey completeness and the idle-cost pin."""
    figures: dict[str, object] = dict(
        measure(nbytes=scaled(65536, payload_scale, minimum=4096))
    )
    figures.update(
        measure_uninstalled(nbytes=scaled(65536, payload_scale, minimum=4096))
    )
    return figures


def main():
    figures = measure()
    figures.update(measure_uninstalled())
    rows = [("figure", "value")]
    rows.extend((key, figures[key]) for key in sorted(figures))
    print_table("PROVENANCE — journey tracking volume and idle cost", rows)
    print("uninstalled_records must be 0: with no tracker installed the")
    print("hot path is one falsy check — the label is the only state.")


if __name__ == "__main__":
    main()
