"""Unit tests for the bus cost model and Integrated Layer Processing."""

import pytest

from repro.host.ilp import (
    byteswap_function,
    checksum_function,
    run_integrated,
    run_layered,
    xor_decrypt_function,
)
from repro.host.memory import BusModel, TouchLedger


class TestTouchLedger:
    def test_record_and_total(self):
        ledger = TouchLedger()
        ledger.record("nic-to-app", 100)
        ledger.record("nic-to-app", 50)
        ledger.record("buffer-to-app", 25)
        assert ledger.total_bytes_moved == 175
        assert ledger.touches == {"nic-to-app": 150, "buffer-to-app": 25}

    def test_touches_per_payload_byte(self):
        ledger = TouchLedger()
        ledger.record("a", 200)
        assert ledger.touches_per_payload_byte(100) == 2.0

    def test_zero_payload(self):
        assert TouchLedger().touches_per_payload_byte(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TouchLedger().record("x", -1)


class TestBusModel:
    def test_bus_time(self):
        ledger = TouchLedger()
        ledger.record("move", 1000)
        bus = BusModel(bus_bandwidth_bps=8000)
        assert bus.bus_time(ledger) == 1.0

    def test_effective_throughput_halves_with_double_touch(self):
        bus = BusModel(bus_bandwidth_bps=400e6)
        single = TouchLedger()
        single.record("once", 1000)
        double = TouchLedger()
        double.record("in", 1000)
        double.record("out", 1000)
        t1 = bus.effective_throughput_bps(single, 1000)
        t2 = bus.effective_throughput_bps(double, 1000)
        assert t1 == pytest.approx(2 * t2)
        assert t1 == pytest.approx(400e6)

    def test_empty_ledger_is_unbounded(self):
        assert BusModel().effective_throughput_bps(TouchLedger(), 0) == float("inf")


class TestIlp:
    WORDS = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]
    STACK = [checksum_function(), xor_decrypt_function(), byteswap_function()]

    def test_results_identical(self):
        layered = run_layered(self.WORDS, self.STACK)
        integrated = run_integrated(self.WORDS, self.STACK)
        assert layered.words == integrated.words
        assert layered.accumulators == integrated.accumulators

    def test_integrated_touches_floor(self):
        integrated = run_integrated(self.WORDS, self.STACK)
        assert integrated.touches_per_byte() == pytest.approx(2.0)

    def test_layered_touches_scale_with_depth(self):
        layered = run_layered(self.WORDS, self.STACK)
        # checksum: 1 read; decrypt: read+write; byteswap: read+write = 5.
        assert layered.touches_per_byte() == pytest.approx(5.0)

    def test_touch_gap_grows_with_more_layers(self):
        deep = self.STACK + [xor_decrypt_function(0x11111111)]
        layered = run_layered(self.WORDS, deep)
        integrated = run_integrated(self.WORDS, deep)
        assert layered.touches_per_byte() == pytest.approx(7.0)
        assert integrated.touches_per_byte() == pytest.approx(2.0)

    def test_transform_only_stack(self):
        stack = [xor_decrypt_function()]
        layered = run_layered(self.WORDS, stack)
        integrated = run_integrated(self.WORDS, stack)
        assert layered.words == integrated.words == [
            w ^ 0x5A5A5A5A for w in self.WORDS
        ]

    def test_accumulate_only_stack(self):
        stack = [checksum_function()]
        layered = run_layered(self.WORDS, stack)
        integrated = run_integrated(self.WORDS, stack)
        assert layered.words == list(self.WORDS)  # untouched
        assert layered.accumulators == integrated.accumulators
        assert layered.accumulators["checksum"] != 0

    def test_byteswap_involution(self):
        once = run_integrated(self.WORDS, [byteswap_function()])
        twice = run_integrated(once.words, [byteswap_function()])
        assert twice.words == list(self.WORDS)

    def test_empty_input(self):
        result = run_integrated([], self.STACK)
        assert result.words == []
        assert result.accumulators["checksum"] == 0
