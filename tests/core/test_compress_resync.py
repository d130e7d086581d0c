"""The Appendix A resynchronization rule for SN regeneration.

"To recover synchronization, the transmitter must send SN information
to the receiver occasionally, such as at the beginning of each PDU."
"""

from __future__ import annotations

from repro.core.builder import ChunkStreamBuilder
from repro.paper.compress import (
    CompressionProfile,
    HeaderCompressor,
    HeaderDecompressor,
    implicit_tpdu_ids,
)
from repro.core.fragment import split_to_unit_limit

from tests.helpers import make_payload

_EXPLICIT_FLAG = 0x08


def _stream(tpdus=3, tpdu_units=8):
    builder = ChunkStreamBuilder(connection_id=4, tpdu_units=tpdu_units)
    chunks = []
    for index in range(tpdus):
        frame = implicit_tpdu_ids(
            builder.add_frame(make_payload(tpdu_units, seed=index), frame_id=index)
        )
        for chunk in frame:
            chunks.extend(split_to_unit_limit(chunk, tpdu_units // 2))
    return chunks


PROFILE = CompressionProfile(connection_id=4, implicit_t_id=True, regenerate_sns=True)


class TestResyncRule:
    def test_tpdu_start_headers_are_always_explicit(self):
        compressor = HeaderCompressor(PROFILE)
        for chunk in _stream():
            blob = compressor.encode(chunk)
            if chunk.t.sn == 0:
                assert blob[1] & _EXPLICIT_FLAG, "TPDU-start chunk was implicit"

    def test_mid_tpdu_headers_go_implicit(self):
        compressor = HeaderCompressor(PROFILE)
        implicit = 0
        for chunk in _stream():
            blob = compressor.encode(chunk)
            if not blob[1] & _EXPLICIT_FLAG:
                implicit += 1
                assert chunk.t.sn != 0
        assert implicit > 0, "regeneration never engaged"

    def test_loss_damages_at_most_its_own_tpdu(self):
        """Drop any single implicit record: every later TPDU still
        decodes with correct labels (resync at the next TPDU start)."""
        chunks = _stream()
        compressor = HeaderCompressor(PROFILE)
        records = [(chunk, compressor.encode(chunk)) for chunk in chunks]
        implicit_index = next(
            i for i, (_c, b) in enumerate(records) if not b[1] & _EXPLICIT_FLAG
        )
        lost_tpdu = records[implicit_index][0].t.ident

        decoder = HeaderDecompressor(PROFILE)
        mislabelled = []
        for i, (original, blob) in enumerate(records):
            if i == implicit_index:
                continue
            decoded, _ = decoder.decode(blob, 0)
            if decoded != original:
                mislabelled.append(original.t.ident)
        # Only chunks of the damaged TPDU may decode with wrong labels.
        assert set(mislabelled) <= {lost_tpdu}

    def test_roundtrip_still_exact_when_nothing_lost(self):
        chunks = _stream()
        compressor = HeaderCompressor(PROFILE)
        decoder = HeaderDecompressor(PROFILE)
        for chunk in chunks:
            decoded, _ = decoder.decode(compressor.encode(chunk), 0)
            assert decoded == chunk
