"""Unit tests for the Turner drop policy."""

from repro.core.fragment import split_to_unit_limit
from repro.core.packet import Packet, pack_chunks
from repro.netsim.events import EventLoop
from repro.paper.turner import BottleneckQueue

from tests.helpers import make_chunk


def _tpdu_packets(t_id, units=64, mtu=256):
    chunk = make_chunk(
        units=units, t_id=t_id, t_st=True, seed=t_id,
        c_sn=t_id * units, x_id=200 + t_id,
    )
    return [p.encode() for p in pack_chunks(split_to_unit_limit(chunk, 16), mtu)]


class TestBottleneckQueue:
    def _run(self, policy, depth=4, tpdus=6):
        """Frames of all TPDUs interleaved round-robin (striped traffic),
        so tail drops land mid-TPDU rather than on TPDU boundaries."""
        loop = EventLoop()
        delivered = []
        queue = BottleneckQueue(
            loop, delivered.append, rate_bps=1e6, depth_frames=depth, policy=policy
        )
        per_tpdu = [_tpdu_packets(t_id, units=128, mtu=128) for t_id in range(tpdus)]
        longest = max(len(frames) for frames in per_tpdu)
        # Pace arrivals at ~125% of the drain rate so the queue builds
        # gradually and overflows land mid-TPDU.
        drain_time = 128 * 8 / queue.rate_bps
        interval = drain_time / 1.25
        slot = 0
        for round_index in range(longest):
            for frames in per_tpdu:
                if round_index < len(frames):
                    frame = frames[round_index]
                    loop.at(slot * interval, lambda f=frame: queue.send(f))
                    slot += 1
        loop.run()
        return queue, delivered

    @staticmethod
    def _complete_tpdus(delivered):
        """TPDU ids whose every fragment arrived."""
        from repro.core.reassemble import coalesce

        chunks = [c for f in delivered for c in Packet.decode(f).chunks]
        complete = set()
        for merged in coalesce(chunks):
            if merged.t.sn == 0 and merged.t.st:
                complete.add(merged.t.ident)
        return complete

    def test_no_drops_when_queue_is_deep(self):
        queue, delivered = self._run("random", depth=1000)
        assert queue.stats.frames_dropped_overflow == 0
        assert len(self._complete_tpdus(delivered)) == 6

    def test_random_drop_wastes_partial_tpdus(self):
        queue, delivered = self._run("random", depth=3)
        assert queue.stats.frames_dropped_overflow > 0
        complete = self._complete_tpdus(delivered)
        # Bytes were forwarded for TPDUs that can never complete.
        partial_frames = [
            f for f in delivered
            if not all(
                c.t.ident in complete for c in Packet.decode(f).chunks if c.is_data
            )
        ]
        assert partial_frames

    def test_turner_drop_discards_doomed_fragments(self):
        queue, delivered = self._run("turner", depth=3)
        assert queue.stats.frames_dropped_turner > 0
        assert queue.stats.bytes_saved_by_turner > 0

    def test_turner_forwards_fewer_useless_bytes(self):
        _, random_delivered = self._run("random", depth=3)
        _, turner_delivered = self._run("turner", depth=3)
        random_complete = self._complete_tpdus(random_delivered)
        turner_complete = self._complete_tpdus(turner_delivered)

        def useless_bytes(delivered, complete):
            total = 0
            for frame in delivered:
                for chunk in Packet.decode(frame).chunks:
                    if chunk.is_data and chunk.t.ident not in complete:
                        total += chunk.payload_bytes
            return total

        assert useless_bytes(turner_delivered, turner_complete) < useless_bytes(
            random_delivered, random_complete
        )

    def test_forget_tpdu_allows_retransmission(self):
        loop = EventLoop()
        delivered = []
        queue = BottleneckQueue(
            loop, delivered.append, rate_bps=1e9, depth_frames=2, policy="turner"
        )
        frames = _tpdu_packets(1, units=256, mtu=128)
        for frame in frames:
            queue.send(frame)  # overflows; TPDU 1 doomed
        loop.run()
        assert queue.stats.frames_dropped_overflow > 0
        before = len(delivered)
        queue.forget_tpdu(1, 1)
        # A paced retransmission of the whole TPDU now passes; without
        # forget_tpdu the turner filter would discard every frame.
        for index, frame in enumerate(frames):
            loop.schedule(0.01 * (index + 1), lambda f=frame: queue.send(f))
        loop.run()
        assert len(delivered) > before
        assert 1 in self_complete(delivered)


def self_complete(delivered):
    return TestBottleneckQueue._complete_tpdus(delivered)
