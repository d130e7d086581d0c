"""Chunk transport sender.

Frames the application's external PDUs into chunks (Figures 1-2), cuts
TPDUs for error control, attaches one ERROR_DETECTION chunk per TPDU
(Section 4), and supports retransmission that reuses the original
identifiers — "to reduce degradation caused by fragment loss and
fragment timeout problems, retransmitted data should use the same
identifiers as the originally transmitted data.  An identical technique
can be used with chunks" (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.compress import implicit_tpdu_ids
from repro.core.errors import ChunkError
from repro.obs import counter
from repro.wsc.invariant import encode_tpdu
from repro.transport.connection import ConnectionConfig, build_signaling_chunk

__all__ = ["ChunkTransportSender"]

_OBS_FRAMES_SENT = counter("transport", "sender.frames_sent", "external PDUs framed")
_OBS_TPDUS_SENT = counter("transport", "sender.tpdus_sent", "TPDUs completed with an ED chunk")
_OBS_CHUNKS_EMITTED = counter("transport", "sender.chunks_emitted", "chunks handed to the wire")
_OBS_RETRANSMISSIONS = counter(
    "transport", "retransmissions", "identifier-preserving TPDU retransmissions"
)
_OBS_RETRANSMITTED_CHUNKS = counter(
    "transport", "sender.retransmitted_chunks", "chunks re-emitted unchanged"
)


@dataclass
class _TpduRecord:
    """Everything needed to retransmit one TPDU."""

    chunks: list[Chunk] = field(default_factory=list)
    ed_chunk: Chunk | None = None


@dataclass
class ChunkTransportSender:
    """Sender side of a chunk connection.

    Usage::

        sender = ChunkTransportSender(ConnectionConfig(connection_id=7))
        wire = [sender.establishment_chunk()]
        wire += sender.send_frame(frame_bytes)
        wire += sender.close()

    Retransmission: :meth:`retransmit` re-emits a TPDU's original chunks
    and ED chunk unchanged, so receiver-side duplicate rejection and the
    incremental checksum stay correct.
    """

    config: ConnectionConfig
    history_limit: int = 1024

    _builder: ChunkStreamBuilder = field(init=False)
    _tpdus: dict[int, _TpduRecord] = field(init=False, default_factory=dict)
    frames_sent: int = field(init=False, default=0)
    tpdus_sent: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        tpdu_ids = (
            implicit_tpdu_ids(0, self.config.tpdu_units)
            if self.config.implicit_t_id
            else None
        )
        self._builder = ChunkStreamBuilder(
            connection_id=self.config.connection_id,
            tpdu_units=self.config.tpdu_units,
            unit_words=self.config.unit_words,
            tpdu_ids=tpdu_ids,
        )

    # ------------------------------------------------------------------

    def set_tpdu_units(self, units: int) -> None:
        """Resize TPDUs from the next TPDU boundary (Section 3).

        Incompatible with ``implicit_t_id`` (the Figure 7 allocation
        assumes a fixed stride).
        """
        if self.config.implicit_t_id:
            raise ChunkError(
                "implicit T.ID allocation requires a fixed TPDU size"
            )
        self._builder.set_tpdu_units(units)

    @property
    def tpdu_units(self) -> int:
        """Current TPDU size in atomic units."""
        return self._builder.tpdu_units

    def establishment_chunk(self) -> Chunk:
        """The connection-establishment signaling chunk (send first)."""
        return build_signaling_chunk(self.config)

    def send_frame(
        self,
        payload: bytes,
        frame_id: int | None = None,
        end_of_connection: bool = False,
    ) -> list[Chunk]:
        """Frame one external PDU; returns wire-ready chunks.

        The returned list contains the frame's DATA chunks plus an
        ERROR_DETECTION chunk for every TPDU that completed within this
        frame (a frame may complete zero or many TPDUs).
        """
        chunks = self._builder.add_frame(
            payload, frame_id=frame_id, end_of_connection=end_of_connection
        )
        self.frames_sent += 1
        _OBS_FRAMES_SENT.inc()
        out: list[Chunk] = []
        for chunk in chunks:
            record = self._tpdus.get(chunk.t_id)
            if record is None:
                record = _TpduRecord()
                self._tpdus[chunk.t_id] = record
                while len(self._tpdus) > self.history_limit:
                    del self._tpdus[next(iter(self._tpdus))]
            record.chunks.append(chunk)
            out.append(chunk)
            if chunk.t_st:
                _payload, ed_chunk = encode_tpdu(record.chunks)
                record.ed_chunk = ed_chunk
                self.tpdus_sent += 1
                _OBS_TPDUS_SENT.inc()
                out.append(ed_chunk)
        _OBS_CHUNKS_EMITTED.inc(len(out))
        return out

    def close(self, final_payload: bytes | None = None, frame_id: int | None = None) -> list[Chunk]:
        """Send the final frame with the C.ST bit set (connection end)."""
        if final_payload is None:
            raise ChunkError(
                "chunk connections close by setting C.ST on the last data; "
                "pass the final frame's payload to close()"
            )
        return self.send_frame(final_payload, frame_id=frame_id, end_of_connection=True)

    # ------------------------------------------------------------------

    def retransmit(self, t_id: int) -> list[Chunk]:
        """Re-emit a TPDU's chunks with their *original* identifiers."""
        record = self._tpdus.get(t_id)
        if record is None:
            raise ChunkError(f"TPDU {t_id} is no longer in the retransmit history")
        out = list(record.chunks)
        if record.ed_chunk is not None:
            out.append(record.ed_chunk)
        _OBS_RETRANSMISSIONS.inc()
        _OBS_RETRANSMITTED_CHUNKS.inc(len(out))
        return out

    def acknowledge(self, t_id: int) -> None:
        """Drop a verified TPDU from the retransmit history."""
        self._tpdus.pop(t_id, None)

    def outstanding_tpdus(self) -> list[int]:
        """TPDU ids still unacknowledged, in emission order."""
        return list(self._tpdus)
