"""Unit tests for the metric instruments and their registry."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    EXP_HI,
    EXP_LO,
    EXP_ZERO,
    Registry,
    bucket_exponent,
    bucket_label,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Registry().counter("s", "c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative_increments(self):
        counter = Registry().counter("s", "c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_sample(self):
        counter = Registry().counter("s", "c")
        counter.inc(3)
        assert counter.sample() == {"value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Registry().gauge("s", "g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3

    def test_high_water_tracks_maximum(self):
        gauge = Registry().gauge("s", "g")
        gauge.set(7)
        gauge.set(2)
        gauge.inc(1)
        assert gauge.value == 3
        assert gauge.high_water == 7

    def test_high_water_ignores_negative_excursions(self):
        gauge = Registry().gauge("s", "g")
        gauge.dec(10)
        assert gauge.value == -10
        assert gauge.high_water == 0


class TestBuckets:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, EXP_ZERO),
            (-3.5, EXP_ZERO),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (7, 3),
            (1024, 10),
            (1024.5, 11),
            (0.004, -7),
        ],
    )
    def test_bucket_exponent(self, value, expected):
        assert bucket_exponent(value) == expected

    def test_exponent_clamped_to_range(self):
        assert bucket_exponent(2.0**-60) == EXP_LO
        assert bucket_exponent(2.0**80) == EXP_HI

    def test_labels(self):
        assert bucket_label(EXP_ZERO) == "<=0"
        assert bucket_label(3) == "<=2^3"
        assert bucket_label(-7) == "<=2^-7"

    def test_power_of_two_lands_in_own_bucket(self):
        # 2^e belongs to bucket e (smallest power of two >= value).
        for exponent in range(-10, 11):
            assert bucket_exponent(2.0**exponent) == exponent


class TestHistogram:
    def test_observe_statistics(self):
        hist = Registry().histogram("s", "h")
        for value in (1, 2, 3):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6
        assert hist.mean == pytest.approx(2.0)
        assert hist.minimum == 1
        assert hist.maximum == 3

    def test_empty_histogram_mean(self):
        assert Registry().histogram("s", "h").mean == 0.0

    def test_sparse_buckets(self):
        hist = Registry().histogram("s", "h")
        hist.observe(0)
        hist.observe(1)
        hist.observe(1)
        hist.observe(100)
        assert hist.buckets == {EXP_ZERO: 1, 0: 2, 7: 1}

    def test_sample_keys_are_strings(self):
        hist = Registry().histogram("s", "h")
        hist.observe(5)
        assert hist.sample()["buckets"] == {"3": 1}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = Registry()
        assert registry.counter("a", "x") is registry.counter("a", "x")

    def test_kind_mismatch_raises(self):
        registry = Registry()
        registry.counter("a", "x")
        with pytest.raises(ValueError):
            registry.gauge("a", "x")
        with pytest.raises(ValueError):
            registry.histogram("a", "x")

    def test_samples_sorted_by_scope_then_name(self):
        registry = Registry()
        registry.counter("z", "a")
        registry.counter("a", "z")
        registry.counter("a", "b")
        keys = [(s.scope, s.name) for s in registry.samples()]
        assert keys == [("a", "b"), ("a", "z"), ("z", "a")]

    def test_get_does_not_create(self):
        registry = Registry()
        assert registry.get("a", "missing") is None
        registry.counter("a", "present")
        assert registry.get("a", "present") is not None

    def test_default_clock_is_zero(self):
        assert Registry().now() == 0.0
