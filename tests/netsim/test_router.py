"""Unit tests for chunk-aware routers (Figure 4 in motion)."""

import pytest

from repro.core.fragment import split
from repro.core.packet import Packet, pack_chunks
from repro.core.reassemble import coalesce
from repro.netsim.events import EventLoop
from repro.netsim.router import ChunkRouter
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

from tests.conftest import make_chunk


def _receive_all(frames):
    chunks = []
    for frame in frames:
        chunks.extend(Packet.decode(frame).chunks)
    return chunks


def _run_router(mode, in_packets, out_mtu, batch_window=0.0):
    loop = EventLoop()
    frames = []
    router = ChunkRouter(
        loop, frames.append, out_mtu=out_mtu, mode=mode, batch_window=batch_window
    )
    for packet in in_packets:
        router.receive(packet.encode())
    loop.run()
    router.flush_now()
    loop.run()
    return router, frames


class TestLargeToSmall:
    def test_splits_for_smaller_mtu(self):
        chunk = make_chunk(units=100, t_st=True)
        router, frames = _run_router("repack", pack_chunks([chunk], 8192), 256)
        assert len(frames) > 1
        assert all(len(f) <= 256 for f in frames)
        assert coalesce(_receive_all(frames)) == [chunk]

    def test_split_counter(self):
        chunk = make_chunk(units=100)
        router, _ = _run_router("repack", pack_chunks([chunk], 8192), 256)
        assert router.stats.chunks_split > 0


class TestSmallToLarge:
    def _small_packets(self):
        chunk = make_chunk(units=30, t_st=True)
        packets = pack_chunks([chunk], 100)
        assert len(packets) > 1  # genuinely fragmented small packets
        return chunk, packets

    def test_one_per_packet_mode(self):
        chunk, small = self._small_packets()
        router, frames = _run_router("one-per-packet", small, 8192, batch_window=0.01)
        received = _receive_all(frames)
        assert len(frames) == len(received)
        assert coalesce(received) == [chunk]

    def test_repack_mode_combines(self):
        chunk, small = self._small_packets()
        router, frames = _run_router("repack", small, 8192, batch_window=0.01)
        assert len(frames) < len(small)
        assert coalesce(_receive_all(frames)) == [chunk]

    def test_reassemble_mode_merges_headers(self):
        chunk, small = self._small_packets()
        router, frames = _run_router("reassemble", small, 8192, batch_window=0.01)
        received = _receive_all(frames)
        assert received == [chunk]  # single merged chunk
        assert router.stats.chunks_merged > 0

    def test_reassemble_has_fewest_bytes(self):
        _, small = self._small_packets()
        results = {}
        for mode in ("one-per-packet", "repack", "reassemble"):
            _, frames = _run_router(mode, small, 8192, batch_window=0.01)
            results[mode] = sum(len(f) for f in frames)
        assert results["reassemble"] <= results["repack"] < results["one-per-packet"]


class TestRouterBehaviour:
    def test_transparent_to_receiver(self):
        """Receivers see well-formed chunks whatever the router did."""
        chunk = make_chunk(units=64, t_st=True, x_st=True)
        for mode in ("one-per-packet", "repack", "reassemble"):
            _, frames = _run_router(mode, pack_chunks([chunk], 2048), 300)
            assert coalesce(_receive_all(frames)) == [chunk]

    def test_garbage_frame_dropped(self):
        loop = EventLoop()
        frames = []
        router = ChunkRouter(loop, frames.append, out_mtu=1500)
        router.receive(b"not a packet at all")
        loop.run()
        assert frames == []
        assert router.stats.decode_failures == 1

    def test_stats_accounting(self):
        chunk = make_chunk(units=10)
        router, frames = _run_router("repack", pack_chunks([chunk], 1500), 1500)
        assert router.stats.frames_in == 1
        assert router.stats.frames_out == len(frames)
        assert router.stats.chunks_in == 1

    def test_batch_window_flushes_on_budget(self):
        """Enough arriving chunks to fill the out MTU flush immediately,
        without waiting for the timer."""
        chunk = make_chunk(units=120, t_st=True)
        small = pack_chunks([chunk], 100)
        loop = EventLoop()
        frames = []
        router = ChunkRouter(
            loop, frames.append, out_mtu=500, mode="repack", batch_window=10.0
        )
        for packet in small:
            router.receive(packet.encode())
        loop.run(until=1.0)  # well before the 10 s timer
        assert frames  # budget-triggered flush happened


class TestWireValidButUnforwardable:
    """A packet that decodes is not yet a packet a smaller MTU can carry:
    the router drops and counts exactly the chunk it cannot cut, and the
    honest chunks sharing its envelope still go out."""

    OUT_MTU = 296

    def _forward(self, hostile, mode="repack"):
        honest = [make_chunk(units=100, t_st=True), make_chunk(units=4, c_id=2, c_sn=7)]
        envelope = Packet(chunks=[honest[0], hostile, honest[1]]).encode()
        assert Packet.decode(envelope).chunks[1] == hostile  # wire-valid
        loop = EventLoop()
        frames = []
        router = ChunkRouter(loop, frames.append, out_mtu=self.OUT_MTU, mode=mode)
        router.receive(envelope)
        loop.run()  # survives: nothing escapes `_emit`
        assert all(len(f) <= self.OUT_MTU for f in frames)
        assert coalesce(_receive_all(frames)) == honest
        assert router.stats.chunks_unforwardable == 1
        assert router.stats.decode_failures == 0
        return router

    @pytest.mark.parametrize("mode", ["repack", "one-per-packet", "reassemble"])
    def test_tail_sn_past_its_field(self, mode):
        """C.SN = 2**64 - 100, LEN = 200: cutting it would need an SN >= 2**64."""
        self._forward(make_chunk(units=200, c_id=3, c_sn=2**64 - 100), mode)

    def test_atomic_unit_larger_than_the_mtu(self):
        """SIZE = 100: one 400-byte atomic unit cannot ride a 296-byte packet."""
        self._forward(make_chunk(units=2, size=100, c_id=3))

    def test_oversize_sn_that_needs_no_cut_is_forwarded_untouched(self):
        chunk = make_chunk(units=8, c_sn=2**64 - 4)
        router, frames = _run_router("repack", [Packet(chunks=[chunk])], self.OUT_MTU)
        assert _receive_all(frames) == [chunk]
        assert router.stats.chunks_unforwardable == 0


class TestOverlapReachesAReassemblingRouter:
    """A router is transparent or it is an evasion point: overlapping
    spans in one batch (an identifier-preserving retransmission re-cut at
    another upstream MTU, or a forgery) are for the end host to judge.
    A ``"reassemble"`` router forwards such a batch un-merged, as
    ``"repack"`` would, and counts it; it never raises."""

    @staticmethod
    def _transfer():
        sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
        data, ed = sender.send_frame(bytes(range(24)), end_of_connection=True)
        assert (data.c_sn, data.length) == (0, 6)
        first_cut, _ = split(data, 4)   # C.SN [0, 4)
        _, second_cut = split(data, 2)  # C.SN [2, 6): the same bytes, cut elsewhere
        return first_cut, second_cut, ed

    def _receiver_behind_router(self, chunks, batch_window):
        honest = make_chunk(units=4, c_id=2, c_sn=7)
        envelopes = [Packet(chunks=[*chunks, honest])]
        if batch_window:  # one chunk per arriving frame; the window joins them
            envelopes = [Packet(chunks=[chunk]) for chunk in [*chunks, honest]]
        router, frames = _run_router("reassemble", envelopes, 8192, batch_window)
        forwarded = _receive_all(frames)
        assert sorted(forwarded) == sorted([*chunks, honest])  # what "repack" sends
        assert router.stats.batches_unmerged == 1
        assert router.stats.chunks_merged == 0
        receiver = ChunkTransportReceiver()
        for chunk in forwarded:
            if chunk.c_id == 9:
                receiver.receive_chunk(chunk)
        return receiver

    @pytest.mark.parametrize("batch_window", [0.0, 0.01], ids=["per-frame", "batched"])
    def test_agreeing_overlap_is_forwarded_and_the_receiver_ends_byte_exact(self, batch_window):
        first_cut, second_cut, ed = self._transfer()
        receiver = self._receiver_behind_router([first_cut, second_cut, ed], batch_window)
        assert receiver.stream_bytes() == bytes(range(24))
        assert receiver.verified_tpdus() == 1 and receiver.pending_tpdus() == []
        assert receiver.stream.overlap_conflicts == 0

    @pytest.mark.parametrize("batch_window", [0.0, 0.01], ids=["per-frame", "batched"])
    def test_disagreeing_overlap_is_forwarded_for_the_end_host_to_refuse(self, batch_window):
        first_cut, second_cut, ed = self._transfer()
        forged = second_cut.replace(payload=bytes(len(second_cut.payload)))
        receiver = self._receiver_behind_router([first_cut, forged, ed], batch_window)
        assert receiver.stream.overlap_conflicts == 1  # refused where placement decides
        assert receiver.verified_tpdus() == 0

    def test_disjoint_fragments_still_merge(self):
        first_cut, _, _ = self._transfer()
        head, tail = split(first_cut, 2)
        router, frames = _run_router("reassemble", [Packet(chunks=[tail, head])], 8192)
        assert _receive_all(frames) == [first_cut]
        assert router.stats.batches_unmerged == 0
