"""Unit tests for the per-packet vs per-PDU interrupt models."""

import random

from repro.core.builder import ChunkStreamBuilder
from repro.core.fragment import split_to_unit_limit
from repro.core.packet import pack_chunks
from repro.paper.interrupts import PerPacketNic, PerPduNic

from tests.helpers import make_payload


def _frames(tpdus=4, tpdu_units=64, mtu=296, shuffle_seed=None):
    builder = ChunkStreamBuilder(connection_id=1, tpdu_units=tpdu_units)
    chunks = []
    for index in range(tpdus):
        chunks += builder.add_frame(make_payload(tpdu_units, seed=index), frame_id=index)
    pieces = [p for c in chunks for p in split_to_unit_limit(c, 16)]
    frames = [p.encode() for p in pack_chunks(pieces, mtu)]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(frames)
    return frames, tpdus


class TestPerPacketNic:
    def test_one_interrupt_per_packet(self):
        frames, _ = _frames()
        nic = PerPacketNic()
        for frame in frames:
            assert nic.on_packet(frame) == 1
        assert nic.interrupts == len(frames)
        assert nic.cpu_seconds == len(frames) * nic.interrupt_cost


class TestPerPduNic:
    def test_one_interrupt_per_tpdu(self):
        frames, tpdus = _frames()
        nic = PerPduNic()
        for frame in frames:
            nic.on_packet(frame)
        assert nic.interrupts == tpdus
        assert sorted(nic.completed_tpdus) == list(range(tpdus))

    def test_disordered_arrivals_still_one_per_tpdu(self):
        frames, tpdus = _frames(shuffle_seed=3)
        nic = PerPduNic()
        for frame in frames:
            nic.on_packet(frame)
        assert nic.interrupts == tpdus

    def test_reduction_factor(self):
        """The Davie-interface payoff: interrupts scale with PDUs, not
        packets; more fragmentation widens the gap."""
        frames, tpdus = _frames(mtu=128)
        per_packet = PerPacketNic()
        per_pdu = PerPduNic()
        for frame in frames:
            per_packet.on_packet(frame)
            per_pdu.on_packet(frame)
        assert per_pdu.interrupts == tpdus
        assert per_packet.interrupts == len(frames)
        assert per_packet.interrupts / per_pdu.interrupts >= 4

    def test_garbage_frame_raises_error_interrupt(self):
        nic = PerPduNic()
        assert nic.on_packet(b"not a packet") == 1
        assert nic.error_interrupts == 1

    def test_incomplete_tpdu_raises_nothing(self):
        frames, _ = _frames(tpdus=1)
        nic = PerPduNic()
        for frame in frames[:-1]:
            nic.on_packet(frame)
        assert nic.interrupts == 0
        nic.on_packet(frames[-1])
        assert nic.interrupts == 1

    def test_duplicates_do_not_reinterrupt(self):
        frames, tpdus = _frames()
        nic = PerPduNic()
        for frame in frames + frames:
            nic.on_packet(frame)
        assert nic.interrupts == tpdus

    def test_conversations_complete_their_own_tpdus(self):
        """T.IDs are per conversation (Section 2): two conversations that
        each complete their T.ID 0 raise two interrupts, however their
        packets interleave."""
        per_conversation = []
        for connection_id in (1, 2):
            builder = ChunkStreamBuilder(connection_id=connection_id, tpdu_units=64)
            (chunk,) = builder.add_frame(make_payload(64, seed=connection_id), frame_id=0)
            pieces = split_to_unit_limit(chunk, 16)
            per_conversation.append([p.encode() for p in pack_chunks(pieces, 296)])
        nic = PerPduNic()
        for pair in zip(*per_conversation, strict=True):
            for frame in pair:
                nic.on_packet(frame)
        assert nic.interrupts == 2
        assert nic.completed_tpdus == [0, 0]
