"""Unit tests for IP fragmentation and lock-up-prone reassembly."""

import random

import pytest

from repro.paper.ipfrag import (
    FRAG_UNIT,
    IP_HEADER_BYTES,
    IpFragment,
    IpReassembler,
    fragment_datagram,
    refragment,
)
from tests.helpers import deterministic_bytes as _payload


class TestFragmentation:
    def test_fits_in_one(self):
        frags = fragment_datagram(1, b"x" * 100, mtu=1500)
        assert len(frags) == 1
        assert not frags[0].more_fragments

    def test_split_on_8_byte_boundaries(self):
        frags = fragment_datagram(1, _payload(1000), mtu=300)
        for frag in frags[:-1]:
            assert len(frag.payload) % FRAG_UNIT == 0
            assert frag.more_fragments
        assert not frags[-1].more_fragments

    def test_offsets_are_contiguous(self):
        payload = _payload(777)
        frags = fragment_datagram(1, payload, mtu=200)
        reassembled = bytearray(len(payload))
        for frag in frags:
            reassembled[frag.offset_bytes : frag.offset_bytes + len(frag.payload)] = frag.payload
        assert bytes(reassembled) == payload

    def test_each_fragment_fits_mtu(self):
        for frag in fragment_datagram(1, _payload(5000), mtu=576):
            assert frag.wire_bytes <= 576

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            fragment_datagram(1, b"x" * 100, mtu=IP_HEADER_BYTES + 4)

    def test_refragment_fragments_further(self):
        [big] = fragment_datagram(1, _payload(400), mtu=1500)
        pieces = refragment(
            IpFragment(1, 10, True, _payload(400)), mtu=120
        )
        assert len(pieces) > 1
        assert pieces[0].offset_units == 10
        assert all(p.more_fragments for p in pieces)  # original had MF set

    def test_refragment_last_piece_keeps_mf_clear(self):
        pieces = refragment(IpFragment(1, 0, False, _payload(400)), mtu=120)
        assert all(p.more_fragments for p in pieces[:-1])
        assert not pieces[-1].more_fragments

    def test_refragment_fitting_passthrough(self):
        frag = IpFragment(1, 0, False, b"x" * 40)
        assert refragment(frag, 1500) == [frag]


class TestReassembly:
    def test_in_order_reassembly(self):
        payload = _payload(900)
        reasm = IpReassembler(capacity_bytes=10_000)
        result = None
        for frag in fragment_datagram(7, payload, mtu=256):
            result = reasm.add_fragment(frag)
        assert result == payload

    def test_out_of_order_reassembly(self):
        payload = _payload(900)
        frags = fragment_datagram(7, payload, mtu=256)
        random.Random(1).shuffle(frags)
        reasm = IpReassembler(capacity_bytes=10_000)
        results = [reasm.add_fragment(f) for f in frags]
        completed = [r for r in results if r is not None]
        assert completed == [payload]

    def test_duplicates_counted_and_harmless(self):
        payload = _payload(500)
        frags = fragment_datagram(7, payload, mtu=256)
        reasm = IpReassembler(capacity_bytes=10_000)
        reasm.add_fragment(frags[0])
        reasm.add_fragment(frags[0])
        assert reasm.stats.duplicate_fragments == 1
        for frag in frags[1:]:
            result = reasm.add_fragment(frag)
        assert result == payload

    def test_interleaved_datagrams(self):
        a = _payload(600, seed=1)
        b = _payload(600, seed=2)
        fa = fragment_datagram(1, a, mtu=200)
        fb = fragment_datagram(2, b, mtu=200)
        mixed = [f for pair in zip(fa, fb) for f in pair]
        reasm = IpReassembler(capacity_bytes=10_000)
        done = [r for f in mixed for r in [reasm.add_fragment(f)] if r]
        assert sorted(done, key=len) == sorted([a, b], key=len)
        assert reasm.stats.datagrams_completed == 2

    def test_buffer_freed_after_completion(self):
        reasm = IpReassembler(capacity_bytes=10_000)
        for frag in fragment_datagram(1, _payload(800), mtu=200):
            reasm.add_fragment(frag)
        assert reasm.buffered_bytes == 0
        assert reasm.partial_count == 0


class TestLockup:
    def test_lockup_event_recorded(self):
        """Many partial datagrams, none completable: the buffer fills
        and new fragments are rejected — classic lock-up."""
        reasm = IpReassembler(capacity_bytes=2_000, evict_after=100.0)
        rejected_before = reasm.stats.fragments_rejected
        for ident in range(20):
            frags = fragment_datagram(ident, _payload(400, seed=ident), mtu=200)
            reasm.add_fragment(frags[0], now=0.0)  # first fragment only
        assert reasm.stats.lockup_events > 0
        assert reasm.stats.fragments_rejected > rejected_before
        assert reasm.buffered_bytes <= 2_000

    def test_eviction_breaks_lockup(self):
        reasm = IpReassembler(capacity_bytes=1_000, evict_after=1.0)
        for ident in range(10):
            frags = fragment_datagram(ident, _payload(400, seed=ident), mtu=200)
            reasm.add_fragment(frags[0], now=0.0)
        # Later arrivals (past the eviction timeout) evict stale partials.
        frags = fragment_datagram(99, _payload(400, seed=99), mtu=200)
        reasm.add_fragment(frags[0], now=5.0)
        assert reasm.stats.datagrams_evicted > 0

    def test_no_lockup_with_ample_buffer(self):
        reasm = IpReassembler(capacity_bytes=1_000_000)
        for ident in range(20):
            for frag in fragment_datagram(ident, _payload(400, seed=ident), mtu=200):
                reasm.add_fragment(frag)
        assert reasm.stats.lockup_events == 0
        assert reasm.stats.datagrams_completed == 20

    def test_peak_buffer_tracked(self):
        reasm = IpReassembler(capacity_bytes=100_000)
        frags = fragment_datagram(1, _payload(1000), mtu=200)
        for frag in frags[:-1]:
            reasm.add_fragment(frag)
        assert reasm.stats.peak_buffer_bytes > 0


class TestOffsetGuard:
    def test_fragment_beyond_ipv4_maximum_rejected(self):
        reasm = IpReassembler(capacity_bytes=10_000)
        huge = IpFragment(1, offset_units=2**30, more_fragments=False, payload=b"x" * 8)
        assert reasm.add_fragment(huge) is None
        assert reasm.stats.fragments_rejected == 1
        assert reasm.buffered_bytes == 0
