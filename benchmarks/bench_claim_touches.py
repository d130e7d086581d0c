"""CLAIM-TOUCH: data touches and bus throughput (Sections 1 and 3.3).

Paper: "buffering requires moving the data twice: once from network
interface to memory (the buffer) and once from memory to the processor.
Because the bus is often a throughput bottleneck on RISC workstations,
moving data across the bus twice can decrease protocol processing
throughput."  And: "Immediate packet processing minimizes data
movement, while reassembly requires two accesses to each piece of
data...  Reordering is somewhere in-between and the number of times
that data must be accessed depends on the amount of disordering."

Reproduction: count bus crossings per payload byte for the three
strategies across disorder levels, and convert to an effective
throughput bound under a 400 Mbps workstation bus.
"""

from __future__ import annotations

import pytest

from _common import print_table, register_bench
from bench_claim_latency import STRATEGIES, run_strategy, timed_arrivals
from repro.host.memory import BusModel

BUS = BusModel(bus_bandwidth_bps=400e6)


def measure(skews=(0.0, 0.0002, 0.0008)):
    rows = []
    for skew in skews:
        arrivals = timed_arrivals(skew)
        entry = {"skew_us": skew * 1e6}
        for name, cls in STRATEGIES:
            receiver = run_strategy(cls, arrivals)
            entry[name] = receiver.touches_per_byte()
            entry[name + "_tput"] = BUS.effective_throughput_bps(
                receiver.ledger, receiver.payload_bytes
            ) / 1e6
        rows.append(entry)
    return rows


def test_immediate_touches_once():
    for row in measure():
        assert row["immediate"] == pytest.approx(1.0)


def test_reassemble_touches_twice():
    for row in measure():
        assert row["reassemble"] == pytest.approx(2.0)


def test_reorder_between_and_grows_with_disorder():
    rows = measure(skews=(0.0, 0.0008))
    # Nearly one touch with an orderly network (only residual multipath
    # jitter buffers anything), strictly more as skew disorders arrivals.
    assert rows[0]["reorder"] == pytest.approx(1.0, abs=0.15)
    assert rows[0]["reorder"] < rows[1]["reorder"] <= 2.0
    assert rows[1]["immediate"] <= rows[1]["reorder"] <= rows[1]["reassemble"]


def test_bus_throughput_factor_of_two():
    """The paper's headline: twice the touches halves bus throughput."""
    row = measure(skews=(0.0008,))[0]
    assert row["immediate_tput"] == pytest.approx(400.0)
    assert row["reassemble_tput"] == pytest.approx(200.0)


def test_touch_accounting_throughput(benchmark):
    arrivals = timed_arrivals(0.0004)

    def run():
        return [run_strategy(cls, arrivals).touches_per_byte()
                for _, cls in STRATEGIES]

    touches = benchmark(run)
    assert len(touches) == 3


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: touches/byte and bus-bound throughput.

    These figures back the budgets asserting the paper's headline:
    immediate processing touches each payload byte once, reassembly
    twice, with reorder in between.
    """
    figures: dict[str, object] = {}
    for entry in measure(skews=(0.0, 0.0008)):
        key = f"skew_{entry['skew_us']:g}us"
        for name, _ in STRATEGIES:
            figures[f"{key}.{name}_touches"] = entry[name]
            figures[f"{key}.{name}_tput_mbps"] = entry[name + "_tput"]
    return figures


def main():
    rows = [
        ("skew (us)",
         "immediate touches", "reorder touches", "reassemble touches",
         "immediate Mbps", "reorder Mbps", "reassemble Mbps")
    ]
    for entry in measure():
        rows.append(
            (entry["skew_us"],
             entry["immediate"], entry["reorder"], entry["reassemble"],
             entry["immediate_tput"], entry["reorder_tput"],
             entry["reassemble_tput"])
        )
    print_table(
        "CLAIM-TOUCH — bus crossings per payload byte and effective "
        "throughput (400 Mbps bus)",
        rows,
    )
    print("paper's claim: reassembly moves each byte twice -> half the bus")
    print("throughput; immediate processing moves it once.")


if __name__ == "__main__":
    main()
