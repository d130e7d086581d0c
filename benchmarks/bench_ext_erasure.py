"""EXT-ERASURE: loss repair from the WSC-2 parities (extension study).

The paper uses WSC-2 for detection only, but its two parity symbols are
two linear equations over GF(2^32), and chunks tell the receiver exactly
which symbols are missing (virtual reassembly's gap list).  So a TPDU
missing one 32-bit word — e.g. exactly one single-unit chunk lost — can
be *repaired locally*, saving the retransmission round trip; the
cross-check against the weighted equation keeps repair safe (a
mis-assumed gap or concurrent corruption raises instead of forging).

This bench sweeps packet-loss rates and reports the fraction of damaged
TPDUs that were repairable in place, plus the repair primitive's cost.
"""

from __future__ import annotations

import random

from _common import make_bytes, print_table, register_bench
from repro.core.builder import ChunkStreamBuilder
from repro.core.fragment import split_to_unit_limit
from repro.paper.erasure import recover_erasures, repair_missing_word
from repro.wsc.invariant import TpduInvariant, encode_tpdu
from repro.wsc.wsc2 import Wsc2Accumulator, wsc2_encode

TPDU_UNITS = 64
TPDUS = 60


def build_tpdus():
    builder = ChunkStreamBuilder(connection_id=9, tpdu_units=TPDU_UNITS)
    out = []
    for index in range(TPDUS):
        chunks = builder.add_frame(
            make_bytes(TPDU_UNITS * 4, seed=index), frame_id=index
        )
        payload, _ = encode_tpdu(chunks)
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 1)]
        out.append((pieces, payload))
    return out


def sweep(loss_rates=(0.005, 0.01, 0.03, 0.08), seed=2):
    tpdus = build_tpdus()
    rows = []
    for loss in loss_rates:
        rng = random.Random(f"{seed}/{loss}")
        intact = repaired = retransmit = 0
        for pieces, ed_payload in tpdus:
            lost = [p for p in pieces if rng.random() < loss]
            if not lost:
                intact += 1
                continue
            arrived = [p for p in pieces if p not in lost]
            invariant = TpduInvariant(pieces[0].c.ident, pieces[0].t.ident)
            for piece in arrived:
                invariant.add_chunk(piece)
            if len(lost) == 1 and not (
                lost[0].t.st or lost[0].x.st or lost[0].c.st
            ):
                word = repair_missing_word(
                    invariant, ed_payload.p0, ed_payload.p1, lost[0].t.sn
                )
                assert word == lost[0].payload  # repair is always exact
                repaired += 1
            else:
                retransmit += 1
        damaged = repaired + retransmit
        rows.append(
            {
                "loss": loss,
                "intact": intact,
                "damaged": damaged,
                "repaired": repaired,
                "repair_fraction": repaired / damaged if damaged else 1.0,
            }
        )
    return rows


def test_single_losses_always_repair_exactly():
    for row in sweep():
        assert row["repaired"] + row["damaged"] >= 0  # sweep ran its asserts

    low = sweep(loss_rates=(0.005,))[0]
    if low["damaged"]:
        assert low["repair_fraction"] > 0.5  # single losses dominate


def test_repair_fraction_falls_with_loss():
    rows = sweep(loss_rates=(0.01, 0.08))
    assert rows[0]["repair_fraction"] >= rows[1]["repair_fraction"]


def test_double_erasure_recovers_two_words():
    symbols = [random.Random(4).getrandbits(32) for _ in range(256)]
    p0, p1 = wsc2_encode(symbols)
    acc = Wsc2Accumulator()
    for index, value in enumerate(symbols):
        if index not in (31, 200):
            acc.add_symbol(index, value)
    solved = recover_erasures(acc, p0, p1, [31, 200])
    assert solved == {31: symbols[31], 200: symbols[200]}


def test_repair_primitive_throughput(benchmark):
    symbols = [random.Random(4).getrandbits(32) for _ in range(1024)]
    p0, p1 = wsc2_encode(symbols)
    acc = Wsc2Accumulator()
    for index, value in enumerate(symbols):
        if index != 500:
            acc.add_symbol(index, value)

    def run():
        return recover_erasures(acc, p0, p1, [500])

    solved = benchmark(run)
    assert solved[500] == symbols[500]


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: in-place repair fractions across the loss sweep."""
    figures: dict[str, object] = {}
    for row in sweep(loss_rates=(0.01, 0.08)):
        key = f"loss_{row['loss']:g}"
        figures[f"{key}.intact"] = row["intact"]
        figures[f"{key}.damaged"] = row["damaged"]
        figures[f"{key}.repaired"] = row["repaired"]
        figures[f"{key}.repair_fraction"] = row["repair_fraction"]
    return figures


def main():
    rows = [("packet loss", "TPDUs intact", "TPDUs damaged",
             "repaired in place", "repair fraction")]
    for row in sweep():
        rows.append((row["loss"], row["intact"], row["damaged"],
                     row["repaired"], row["repair_fraction"]))
    print_table(
        "EXT-ERASURE — in-place repair of lost words from WSC-2 parities",
        rows,
    )
    print("extension result: at low loss, most damaged TPDUs are missing a")
    print("single word and repair locally — zero retransmission round trips —")
    print("while multi-loss TPDUs fall back to ordinary retransmission.")


if __name__ == "__main__":
    main()
