"""FIG-5: the TPDU invariant under chunk fragmentation (Figure 5).

Paper artifact: the error-detection code space layout — data symbols
0..16383, T.ID@16384, C.ID@16385, C.ST@16386, (X.ID, X.ST) pairs keyed
by the boundary element's T.SN — chosen so the WSC-2 value is unchanged
by any in-network fragmentation.

Reproduction: measure invariance empirically over hundreds of random
fragmentation + reordering schedules (and show CRC-32 over the packet
bytes does NOT have this property), plus benchmark incremental
verification throughput.
"""

from __future__ import annotations

import random

from _common import build_tpdu_with_ed, print_table, register_bench, scaled
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import pack_chunks
from repro.paper.crc import crc32
from repro.wsc.endtoend import EndToEndReceiver
from repro.wsc.invariant import TpduInvariant, parse_ed_chunk

TRIALS = 200


def random_schedule(chunks, rng):
    """A random multi-stage fragmentation + shuffle of a chunk list."""
    pieces = list(chunks)
    for _ in range(rng.randrange(1, 4)):
        limit = rng.randrange(1, 9)
        pieces = [p for c in pieces for p in split_to_unit_limit(c, limit)]
    rng.shuffle(pieces)
    return pieces


def measure_invariance(trials=TRIALS, seed=1):
    chunks, ed = build_tpdu_with_ed(tpdu_units=48)
    expected = parse_ed_chunk(ed)
    rng = random.Random(seed)
    stable = 0
    crc_stable = 0
    reference_crc = crc32(b"".join(p.encode() for p in pack_chunks(chunks, 4096)))
    for _ in range(trials):
        pieces = random_schedule(chunks, rng)
        invariant = TpduInvariant(chunks[0].c.ident, chunks[0].t.ident)
        for piece in pieces:
            invariant.add_chunk(piece)
        if invariant.matches(expected.p0, expected.p1):
            stable += 1
        packet_bytes = b"".join(p.encode() for p in pack_chunks(pieces, 4096))
        if crc32(packet_bytes) == reference_crc:
            crc_stable += 1
    return stable, crc_stable


def test_wsc2_invariant_always_stable():
    stable, crc_stable = measure_invariance()
    assert stable == TRIALS
    # CRC over the raw bytes is essentially never stable.
    assert crc_stable < TRIALS * 0.05


def test_incremental_verification_throughput(benchmark):
    chunks, ed = build_tpdu_with_ed(tpdu_units=1024)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, 64)]
    random.Random(3).shuffle(pieces)
    stream = pieces + [ed]

    def run():
        receiver = EndToEndReceiver()
        verdicts = []
        for chunk in stream:
            verdicts += receiver.receive(chunk)
        return verdicts

    verdicts = benchmark(run)
    assert len(verdicts) == 1 and verdicts[0].ok


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: invariance under random fragmentation schedules.

    ``stable == trials`` is a budget: shuffled and in-order
    arrival must produce the identical WSC-2 value on every schedule.
    """
    trials = scaled(TRIALS, payload_scale, minimum=20)
    stable, crc_stable = measure_invariance(trials=trials)
    return {
        "trials": trials,
        "wsc2_stable": stable,
        "crc_stable": crc_stable,
    }


def main():
    stable, crc_stable = measure_invariance()
    rows = [
        ("code over", "schedules stable", f"/ {TRIALS} trials"),
        ("WSC-2 on the Figure-5 invariant", stable, "(paper: always)"),
        ("CRC-32 on raw packet bytes", crc_stable, "(order/fragmentation dependent)"),
    ]
    print_table("Figure 5 — invariance under fragmentation", rows)
    print("position map: data 0..16383, T.ID@16384, C.ID@16385, "
          "C.ST@16386, (X.ID,X.ST)@16387+2*T.SN")


if __name__ == "__main__":
    main()
