"""Edge-case tests for the end-to-end verifier's receiver surface."""

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.tuples import FramingTuple
from repro.core.types import ChunkType
from repro.transport.connection import ConnectionConfig, build_signaling_chunk
from repro.wsc.endtoend import EndToEndReceiver
from repro.wsc.invariant import encode_tpdu

from tests.conftest import make_payload


def _tpdu(connection_id=5, tpdu_units=8, seed=0):
    builder = ChunkStreamBuilder(connection_id=connection_id, tpdu_units=tpdu_units)
    chunks = builder.add_frame(make_payload(tpdu_units, seed=seed), frame_id=0)
    _, ed = encode_tpdu(chunks)
    return chunks, ed


class TestNonTpduChunks:
    def test_signaling_chunks_are_ignored(self):
        receiver = EndToEndReceiver()
        signaling = build_signaling_chunk(ConnectionConfig(connection_id=5))
        assert receiver.receive(signaling) == []
        assert receiver.pending() == []

    def test_ack_chunks_are_ignored(self):
        from repro.transport.acks import build_ack_chunk

        receiver = EndToEndReceiver()
        assert receiver.receive(build_ack_chunk(5, [1, 2])) == []

    def test_external_control_ignored(self):
        receiver = EndToEndReceiver()
        chunk = Chunk(
            type=ChunkType.EXTERNAL_CONTROL,
            size=1,
            length=1,
            c=FramingTuple(5, 0),
            t=FramingTuple(0, 0),
            x=FramingTuple(9, 0),
            payload=b"\x00\x00\x00\x01",
        )
        assert receiver.receive(chunk) == []


class TestStateManagement:
    def test_evict_clears_finished_state(self):
        chunks, ed = _tpdu()
        receiver = EndToEndReceiver()
        for chunk in chunks + [ed]:
            receiver.receive(chunk)
        assert receiver.verified == 1
        receiver.evict(5, 0)
        # Re-delivery after evict starts a fresh checker and verifies again.
        verdicts = []
        for chunk in chunks + [ed]:
            verdicts += receiver.receive(chunk)
        assert len(verdicts) == 1 and verdicts[0].ok
        assert receiver.verified == 2

    def test_pending_lists_unfinished_only(self):
        chunks, ed = _tpdu()
        receiver = EndToEndReceiver()
        receiver.receive(chunks[0])
        assert receiver.pending() == [(5, 0)]
        receiver.receive(ed)
        for chunk in chunks[1:]:
            receiver.receive(chunk)
        assert receiver.pending() == []

    def test_abort_is_idempotent(self):
        chunks, _ = _tpdu()
        receiver = EndToEndReceiver()
        receiver.receive(chunks[0])
        first = receiver.abort_pending()
        second = receiver.abort_pending()
        assert len(first) == 1
        assert second == []
        assert receiver.corrupted == 1

    def test_counters_track_verdicts(self):
        receiver = EndToEndReceiver()
        builder = ChunkStreamBuilder(connection_id=9, tpdu_units=4)
        good = builder.add_frame(make_payload(4, seed=1), frame_id=0)
        _, good_ed = encode_tpdu(good)
        for chunk in good + [good_ed]:
            receiver.receive(chunk)
        bad = builder.add_frame(make_payload(4, seed=2), frame_id=1)
        _, bad_ed = encode_tpdu(bad)
        corrupted = bad[0].replace(payload=b"\xff" + bad[0].payload[1:])
        for chunk in [corrupted] + [bad_ed]:
            receiver.receive(chunk)
        assert receiver.verified == 1
        assert receiver.corrupted == 1


class TestVerdictRecords:
    def test_a_verdict_equals_what_its_constructor_makes(self):
        """Verdicts set their frozen slots directly; they must be the very
        records ``TpduVerdict(...)`` makes: equal, same hash, same repr,
        still frozen."""
        import dataclasses

        import pytest

        from repro.wsc.endtoend import REASON_CODE_MISMATCH, TpduVerdict

        def verdicts(arriving):
            receiver = EndToEndReceiver()
            return [v for chunk in arriving for v in receiver.receive(chunk)]

        chunks, ed = _tpdu(connection_id=7)
        bad = chunks[0].replace(payload=bytes(len(chunks[0].payload)))
        made = verdicts([*chunks, ed]) + verdicts([bad, *chunks[1:], ed])
        expected = [
            TpduVerdict(7, 0, True),
            TpduVerdict(7, 0, False, REASON_CODE_MISMATCH,
                        "WSC-2 invariant differs from received parity"),
        ]
        for verdict, twin in zip(made, expected, strict=True):
            assert verdict == twin and hash(verdict) == hash(twin) and repr(verdict) == repr(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                verdict.ok = not verdict.ok
