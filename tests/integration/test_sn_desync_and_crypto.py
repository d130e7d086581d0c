"""Two Appendix A / Section 1 integration scenarios.

1. **SN-regeneration desynchronization** (Appendix A): "because loss and
   misordering may occur, the counter at the receiver may sometimes lose
   synchronization with the transmitter...  During the time that the
   receiver is out of synchronization, the error detection system will
   detect the incorrect sequence numbers and allow any incorrect chunks
   to be discarded."  We drop a compact-header chunk mid-stream and show
   (a) subsequent implicit chunks decode with wrong SNs, (b) the
   end-to-end verifier rejects every affected TPDU, (c) the explicit
   header at the next TPDU start resynchronizes and later TPDUs verify.

2. **Encrypted transfer on disordered chunks** (Section 1 / [FELD 92]):
   64-bit cipher blocks ride as SIZE=2 chunks; the SIZE field keeps
   blocks intact under fragmentation, and the position-keyed mode
   decrypts every chunk on arrival, in any order.
"""

from __future__ import annotations

import random

from repro.core.builder import ChunkStreamBuilder
from repro.paper.compress import (
    CompressionProfile,
    HeaderCompressor,
    HeaderDecompressor,
    implicit_tpdu_ids,
)
from repro.core.fragment import split_to_unit_limit
from repro.host.delivery import PlacementBuffer
from repro.paper.modes import PositionKeyedMode
from repro.paper.xtea import Xtea
from repro.wsc.endtoend import EndToEndReceiver
from repro.wsc.invariant import encode_tpdu

from tests.conftest import make_payload

KEY = bytes(range(16))


class TestSnRegenerationDesync:
    def _compact_stream(self, tpdus=4, tpdu_units=8):
        builder = ChunkStreamBuilder(connection_id=4, tpdu_units=tpdu_units)
        profile = CompressionProfile(
            connection_id=4, implicit_t_id=True, regenerate_sns=True
        )
        compressor = HeaderCompressor(profile)
        records = []  # (tpdu_id, encoded chunk bytes or ed chunk bytes)
        for index in range(tpdus):
            chunks = implicit_tpdu_ids(
                builder.add_frame(make_payload(tpdu_units, seed=index), frame_id=index)
            )
            # Two chunks per TPDU so the second can ride implicitly.
            halves = []
            for chunk in chunks:
                halves.extend(split_to_unit_limit(chunk, tpdu_units // 2))
            _, ed = encode_tpdu(chunks)
            for piece in halves:
                records.append((index, compressor.encode(piece)))
            records.append((index, compressor.encode(ed)))
        return profile, records

    def test_desync_detected_then_resynchronized(self):
        profile, records = self._compact_stream()
        # Drop the SECOND (implicit) data record of TPDU 1.
        implicit_positions = [
            i for i, (tpdu, blob) in enumerate(records)
            if tpdu == 1 and not (blob[1] & 0x08)  # EXPLICIT flag clear
        ]
        assert implicit_positions, "stream has no implicit headers to drop"
        kept = [r for i, r in enumerate(records) if i != implicit_positions[0]]

        decoder = HeaderDecompressor(profile)
        receiver = EndToEndReceiver()
        verdicts = []
        for _tpdu, blob in kept:
            offset = 0
            while offset < len(blob):
                chunk, offset = decoder.decode(blob, offset)
                verdicts += receiver.receive(chunk)
        verdicts += receiver.abort_pending()

        by_tpdu = {v.t_id: v for v in verdicts}
        ok = {t for t, v in by_tpdu.items() if v.ok}
        bad = {t for t, v in by_tpdu.items() if not v.ok}
        # TPDU 0 (before the drop) and TPDUs 2..3 (after the explicit
        # resync at their TPDU-start headers) verify; TPDU 1 does not.
        assert 0 in ok
        assert bad  # the desynchronized TPDU was caught, not accepted
        later = {t for t in ok if t > max(bad)}
        assert later, "no TPDU after the desync recovered"

    def test_clean_compact_stream_all_verify(self):
        profile, records = self._compact_stream()
        decoder = HeaderDecompressor(profile)
        receiver = EndToEndReceiver()
        verdicts = []
        for _tpdu, blob in records:
            offset = 0
            while offset < len(blob):
                chunk, offset = decoder.decode(blob, offset)
                verdicts += receiver.receive(chunk)
        assert len(verdicts) == 4 and all(v.ok for v in verdicts)


class TestEncryptedDisorderedTransfer:
    def test_decrypt_on_arrival_any_order(self):
        plaintext = make_payload(64, size=2, seed=9)  # 512 B, 64 blocks
        mode = PositionKeyedMode(Xtea(KEY), nonce=5)
        ciphertext = mode.encrypt_at(0, plaintext)

        builder = ChunkStreamBuilder(connection_id=8, tpdu_units=32, unit_words=2)
        chunks = builder.add_frame(ciphertext, frame_id=0, end_of_connection=True)
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 3)]
        random.Random(4).shuffle(pieces)

        # Every unit is one 64-bit cipher block; SIZE=2 guarantees no
        # fragment ever splits a block.
        assert all(p.unit_bytes == 8 for p in pieces)

        out = PlacementBuffer(total_bytes=len(plaintext))
        for piece in pieces:
            block_index = piece.c.sn  # block position = connection SN
            decrypted = mode.decrypt_at(block_index, piece.payload)
            out.place(piece.c.sn * piece.unit_bytes, decrypted)
        assert out.is_complete()
        assert out.contents() == plaintext

    def test_verification_and_decryption_compose(self):
        """ED runs over the ciphertext (what was transmitted); decryption
        is an independent per-chunk step — ILP in action."""
        plaintext = make_payload(32, size=2, seed=11)
        mode = PositionKeyedMode(Xtea(KEY), nonce=6)
        ciphertext = mode.encrypt_at(0, plaintext)

        builder = ChunkStreamBuilder(connection_id=8, tpdu_units=32, unit_words=2)
        chunks = builder.add_frame(ciphertext, frame_id=0)
        _, ed = encode_tpdu(chunks)
        pieces = [p for c in chunks for p in split_to_unit_limit(c, 2)] + [ed]
        random.Random(1).shuffle(pieces)

        receiver = EndToEndReceiver()
        out = PlacementBuffer(total_bytes=len(plaintext))
        verdicts = []
        for piece in pieces:
            verdicts += receiver.receive(piece)
            if piece.is_data:
                out.place(
                    piece.c.sn * piece.unit_bytes,
                    mode.decrypt_at(piece.c.sn, piece.payload),
                )
        assert len(verdicts) == 1 and verdicts[0].ok
        assert out.contents() == plaintext
