"""Unit tests for flag-in-stream framing (Appendix B's other option)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paper.flagstream import (
    FLAG_BEGIN,
    FLAG_END,
    FlagStreamDecoder,
    decode_frames,
    encode_frames,
)


class TestRoundTrip:
    def test_single_frame(self):
        decoder = FlagStreamDecoder()
        assert decoder.feed(encode_frames([b"hello"])) == [b"hello"]

    def test_decode_frames_inverts_encode_frames(self):
        frames = [b"one", bytes([FLAG_BEGIN, FLAG_END, 0x7C]), b"", b"three"]
        assert decode_frames(encode_frames(frames)) == frames

    def test_decode_frames_empty_stream(self):
        assert decode_frames(b"") == []

    def test_multiple_frames(self):
        frames = [b"one", b"two", b"three"]
        decoder = FlagStreamDecoder()
        assert decoder.feed(encode_frames(frames)) == frames

    def test_flag_bytes_in_payload_survive(self):
        nasty = bytes([FLAG_BEGIN, FLAG_END, 0x7C, 0x41, FLAG_BEGIN])
        decoder = FlagStreamDecoder()
        assert decoder.feed(encode_frames([nasty])) == [nasty]

    def test_incremental_feeding(self):
        frames = [bytes(range(50)), bytes(range(50, 100))]
        blob = encode_frames(frames)
        decoder = FlagStreamDecoder()
        out = []
        for index in range(0, len(blob), 7):
            out += decoder.feed(blob[index : index + 7])
        assert out == frames

    @given(st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_roundtrip_property(self, frames):
        decoder = FlagStreamDecoder()
        assert decoder.feed(encode_frames(frames)) == frames


class TestTheTradeOff:
    def test_every_byte_is_examined(self):
        """The Appendix B cost: flag parsing touches the whole stream."""
        frames = [bytes(100) for _ in range(10)]
        blob = encode_frames(frames)
        decoder = FlagStreamDecoder()
        decoder.feed(blob)
        assert decoder.bytes_examined == len(blob)

    def test_misordered_slices_produce_garbage(self):
        """Flags carry no sequence information: swapping two stream
        slices silently corrupts framing — the reason flag protocols
        need in-order channels (Appendix B)."""
        frames = [bytes([i]) * 40 for i in range(4)]
        blob = encode_frames(frames)
        third = len(blob) // 3
        swapped = blob[third : 2 * third] + blob[:third] + blob[2 * third :]
        decoder = FlagStreamDecoder()
        out = decoder.feed(swapped)
        assert out != frames
        assert decoder.garbage_bytes > 0 or out != frames

    def test_lost_end_flag_merges_frames(self):
        frames = [b"A" * 20, b"B" * 20]
        blob = bytearray(encode_frames(frames))
        end_index = blob.index(FLAG_END)
        del blob[end_index]  # lose the first E symbol
        decoder = FlagStreamDecoder()
        out = decoder.feed(bytes(blob))
        # The A-frame is never delivered intact.
        assert b"A" * 20 not in out

    def test_bytes_outside_frames_counted_as_garbage(self):
        decoder = FlagStreamDecoder()
        decoder.feed(b"\x01\x02\x03")  # no BEGIN yet
        assert decoder.garbage_bytes == 3
