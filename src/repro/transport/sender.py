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
from typing import TYPE_CHECKING

from repro.core.builder import ChunkStreamBuilder
from repro.core.chunk import Chunk
from repro.core.errors import ChunkError
from repro.core.fragment import split
from repro.obs import Tallies
from repro.obs import runtime as obs_runtime
from repro.wsc.invariant import encode_tpdu
from repro.transport.acks import OPEN_END
from repro.transport.connection import ConnectionConfig, build_signaling_chunk

if TYPE_CHECKING:
    from repro.transport.reliability import ReliableSender

__all__ = ["ChunkTransportSender"]

_TALLIES = Tallies({
    "frames_sent": ("transport", "sender.frames_sent", "external PDUs framed"),
    "tpdus_sent": ("transport", "sender.tpdus_sent", "TPDUs completed with an ED chunk"),
    "chunks_emitted": ("transport", "sender.chunks_emitted", "chunks handed to the wire"),
    "retransmissions": (
        "transport", "retransmissions", "identifier-preserving TPDU retransmissions"
    ),
    "retransmitted_chunks": (
        "transport", "sender.retransmitted_chunks", "chunks re-emitted with their original labels"
    ),
})


@dataclass(slots=True, eq=False)
class _Tpdu:
    """One TPDU in flight, in the history and (*session* set) timed by a
    :class:`~repro.transport.reliability.ReliableSender`: history and
    outstanding set are one table.  Cleared, its queued timer is a no-op."""

    t_id: int
    chunks: list[Chunk]
    ed_chunk: Chunk | None = None
    retries: int = 0
    session: "ReliableSender | None" = None
    #: the unit ranges a gap report named since the timer last fired.
    gaps: list[tuple[int, int]] | None = None

    def expire(self) -> None:
        """The retransmission timer's callback."""
        if self.session is not None:
            self.session._timeout(self)

    def drop(self, history: dict[int, "_Tpdu"]) -> "ReliableSender | None":
        """Leave *history*, freeing the chunks a queued timer would hold."""
        del history[self.t_id]
        session, self.session, self.ed_chunk = self.session, None, None
        self.chunks.clear()
        return session


@dataclass(slots=True)
class ChunkTransportSender:
    """Sender side of a chunk connection.

    Usage::

        sender = ChunkTransportSender(ConnectionConfig(connection_id=7))
        wire = [sender.establishment_chunk()]
        wire += sender.send_frame(frame_bytes)
        wire += sender.close()

    Retransmission: :meth:`retransmit` re-emits a TPDU's original chunks
    and ED chunk unchanged, so receiver-side duplicate rejection and the
    incremental checksum stay correct.  The history keeps the newest
    *history_limit* TPDUs; one trimmed while still timed is given up.
    """

    config: ConnectionConfig
    history_limit: int = 1024

    _builder: ChunkStreamBuilder = field(init=False)
    _tpdus: dict[int, _Tpdu] = field(init=False, default_factory=dict)
    frames_sent: int = field(init=False, default=0)
    tpdus_sent: int = field(init=False, default=0)
    chunks_emitted: int = field(init=False, default=0)
    retransmissions: int = field(init=False, default=0)
    retransmitted_chunks: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        config = self.config
        self._builder = ChunkStreamBuilder(
            config.connection_id, config.tpdu_units, config.unit_words
        )

    # ------------------------------------------------------------------

    def set_tpdu_units(self, units: int) -> None:
        """Resize TPDUs from the next TPDU boundary (Section 3)."""
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
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        chunks = self._builder.add_frame(payload, frame_id, end_of_connection)
        self.frames_sent += 1
        tpdus = self._tpdus
        out: list[Chunk] = []
        for chunk in chunks:
            out.append(chunk)
            t_id = chunk[6]
            record = tpdus.get(t_id)
            if record is None:
                record = tpdus[t_id] = _Tpdu(t_id, [chunk])
                while len(tpdus) > self.history_limit:  # the oldest goes; a timed one is given up
                    oldest = tpdus[next(iter(tpdus))]
                    session = oldest.drop(tpdus)
                    if session is not None:
                        session._give_up(oldest.t_id)
            else:
                record.chunks.append(chunk)
            if chunk[8]:  # T.ST: the TPDU is complete
                record.ed_chunk = ed_chunk = encode_tpdu(record.chunks)[1]
                out.append(ed_chunk)
                self.tpdus_sent += 1
        self.chunks_emitted += len(out)
        if before is not None:
            _TALLIES.publish(before, self)
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

    def retransmit(
        self, t_id: int, gaps: list[tuple[int, int]] | None = None, ed: bool = False
    ) -> list[Chunk]:
        """Re-emit the units in *gaps* of a TPDU (by default all of it) with
        their *original* identifiers, cut from its chunks by Appendix C's
        split, which keeps every label; its ED chunk if *ed* or a gap reaches
        past the TPDU's last unit."""
        record = self._tpdus.get(t_id)
        if record is None:
            raise ChunkError(f"TPDU {t_id} is no longer in the retransmit history")
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        gaps, out = gaps or [(0, OPEN_END)], []
        for chunk in record.chunks:
            low, high = chunk[7], chunk[7] + chunk[2]
            for start, end in gaps:
                if start < high and end > low:
                    piece = chunk if end >= high else split(chunk, end - low)[0]
                    out.append(piece if start <= low else split(piece, start - low)[1])
        if record.ed_chunk is not None and (ed or gaps[-1][1] > high):
            out.append(record.ed_chunk)
        self.retransmissions += 1
        self.retransmitted_chunks += len(out)
        if before is not None:
            _TALLIES.publish(before, self)
        return out

    def acknowledge(self, t_id: int) -> None:
        """Drop a verified TPDU from the retransmit history."""
        self._tpdus.pop(t_id, None)

    def outstanding_tpdus(self) -> list[int]:
        """TPDU ids still unacknowledged, in emission order."""
        return list(self._tpdus)
