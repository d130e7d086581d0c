"""End-to-end error detection for chunks (Section 4, Table 1).

The receiver detects TPDU corruption three ways:

1. **error detection code mismatch** — the incrementally accumulated
   WSC-2 invariant (:mod:`repro.wsc.invariant`) differs from the parity
   carried in the TPDU's ED chunk;
2. **reassembly error** — virtual reassembly fails (units beyond a seen
   ST, conflicting STs, payload misframing) or never completes;
3. **consistency check** — (C.SN − T.SN) is not constant across the
   TPDU's chunks, or (C.SN − X.SN) is not constant across the chunks of
   one external PDU within the TPDU.

:class:`EndToEndReceiver` demultiplexes chunks by C.ID (connections),
tracks every in-flight TPDU by T.ID, feeds fresh data into the
invariant as it arrives — in any order, with no payload buffering — and
emits a :class:`TpduVerdict` the moment a TPDU completes (or fails).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chunk import Chunk
from repro.core.errors import ChunkError, VirtualReassemblyError
from repro.core.types import OPEN_END, ChunkType
from repro.core.virtual import PduState
from repro.obs import Tallies
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime
from repro.wsc.invariant import _ED_PAYLOAD, TpduInvariant, _id_parities

__all__ = [
    "REASON_CODE_MISMATCH",
    "REASON_REASSEMBLY",
    "REASON_CONSISTENCY",
    "TpduVerdict",
    "EndToEndReceiver",
]

REASON_CODE_MISMATCH = "code-mismatch"
REASON_REASSEMBLY = "reassembly-error"
REASON_CONSISTENCY = "consistency-check"

_TALLIES = Tallies({
    "verified": ("wsc", "tpdu_verified", "TPDUs passing end-to-end verification"),
    "corrupted": ("wsc", "tpdu_corrupted", "TPDUs failing end-to-end verification"),
    # One failure counter per Table 1 reason code.
    "code_mismatches": (
        "wsc", "fail.code-mismatch", "TPDU failures classified code-mismatch"
    ),
    "reassembly_errors": (
        "wsc", "fail.reassembly-error", "TPDU failures classified reassembly-error"
    ),
    "consistency_failures": (
        "wsc", "fail.consistency-check", "TPDU failures classified consistency-check"
    ),
})
# An enum member read is ~0.1 µs on CPython 3.11: the per-chunk path reads these.
_DATA, _ED = ChunkType.DATA, ChunkType.ERROR_DETECTION
_ED_BYTES = _ED_PAYLOAD.size


@dataclass(frozen=True, slots=True)
class TpduVerdict:
    """Outcome of end-to-end verification for one TPDU."""

    c_id: int
    t_id: int
    ok: bool
    reason: str | None = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "OK" if self.ok else f"CORRUPT({self.reason}: {self.detail})"
        return f"TPDU c={self.c_id} t={self.t_id}: {status}"


# A frozen dataclass's __init__ sets each field through object.__setattr__;
# a verdict is made once per TPDU by setting its slots directly.
_SET_C_ID, _SET_T_ID, _SET_OK, _SET_REASON, _SET_DETAIL = (
    TpduVerdict.__dict__[name].__set__ for name in ("c_id", "t_id", "ok", "reason", "detail")
)


class _TpduCheck(TpduInvariant):
    """Receiver-side state for one (connection, TPDU) pair, in one slotted
    record: it *is* the TPDU's WSC-2 invariant (parities and IDs), beside
    its virtual reassembly, the ED chunk's (P0, P1, unit count) once seen,
    the consistency deltas and the first failure."""

    __slots__ = ("reassembly", "expected", "c_minus_t", "x_deltas", "failure")

    def __init__(self, c_id: int, t_id: int) -> None:
        self.c_id, self.t_id = c_id, t_id
        self.p0, self.p1 = _id_parities(c_id, t_id)
        self.reassembly = PduState()
        self.expected: tuple[int, int, int] | None = None
        self.c_minus_t: int | None = None
        self.x_deltas: dict[int, int] = {}
        self.failure: tuple[str, str] | None = None

    def fail(self, reason: str, detail: str) -> None:
        if self.failure is None:
            self.failure = (reason, detail)

    def verdict(self, abandoned: bool = False) -> TpduVerdict:
        """The TPDU's verdict, ok exactly when it has no reason: at completion
        (data + ED), at a hard failure, or *abandoned* incomplete."""
        if self.failure is not None:
            reason, detail = self.failure
        elif abandoned:
            reason, detail = REASON_REASSEMBLY, (
                f"virtual reassembly never completed (missing unit ranges "
                f"{self.reassembly.missing()}, ED {'present' if self.expected else 'absent'})"
            )
        else:
            assert self.expected is not None
            p0, p1, total_units = self.expected
            total = self.reassembly.total_units
            if total is None:
                reason, detail = (
                    REASON_REASSEMBLY, "all units present but no T.ST seen (ST bit corrupted?)"
                )
            elif total != total_units:
                reason, detail = REASON_REASSEMBLY, (
                    f"reassembled {total} units but ED chunk declares {total_units}"
                )
            elif self.p0 == p0 and self.p1 == p1:
                reason, detail = None, ""
            else:
                reason, detail = (
                    REASON_CODE_MISMATCH, "WSC-2 invariant differs from received parity"
                )
        verdict = TpduVerdict.__new__(TpduVerdict)
        _SET_C_ID(verdict, self.c_id)
        _SET_T_ID(verdict, self.t_id)
        _SET_OK(verdict, reason is None)
        _SET_REASON(verdict, reason)
        _SET_DETAIL(verdict, detail)
        return verdict


@dataclass
class EndToEndReceiver:
    """Connection-demultiplexing end-to-end verifier.

    Feed every arriving chunk to :meth:`receive`; completed TPDUs come
    back as verdicts immediately (possibly more than one per call when
    an ED chunk unblocks a finished TPDU).  Call :meth:`abort_pending`
    at teardown to classify TPDUs that never completed.
    """

    #: in-flight checks; a verdicted TPDU keeps its key with ``None`` so a
    #: late duplicate is recognised without keeping the TPDU's state alive.
    _checkers: dict[tuple[int, int], _TpduCheck | None] = field(default_factory=dict)
    verified: int = 0
    corrupted: int = 0
    #: corrupted TPDUs by Table 1 reason code.
    code_mismatches: int = 0
    reassembly_errors: int = 0
    consistency_failures: int = 0

    def receive(self, chunk: Chunk) -> list[TpduVerdict]:
        """Check one chunk against its TPDU; the verdicts it completes.

        A DATA chunk is one step on its label: virtual reassembly (Table 1's
        "Reassembly Error" rows), its fresh units into the invariant, then
        the (C.SN - T.SN) and (C.SN - X.SN) "Consistency Check" rows; the
        rest is left to the WSC-2 code at completion.  An ED chunk's
        payload is unpacked where it lands."""
        ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
        if ctype is not _DATA and ctype is not _ED:
            return []  # signaling/ACK chunks are not TPDU-framed data
        key = (c_id, t_id)
        checks = self._checkers
        check = checks.get(key)
        if check is None:
            if key in checks:
                return []  # late duplicate of an already-verdicted TPDU
            check = checks[key] = _TpduCheck(c_id, t_id)
        reassembly = check.reassembly
        if ctype is _ED:
            done = False
            if len(payload) != _ED_BYTES:
                check.fail(
                    REASON_REASSEMBLY, f"ED payload must be {_ED_BYTES} bytes, got {len(payload)}"
                )
            elif check.expected is None:
                check.expected = expected = _ED_PAYLOAD.unpack(payload)
                done = reassembly.complete or reassembly.received.is_complete(expected[2])
            elif check.expected != _ED_PAYLOAD.unpack(payload):
                check.fail(REASON_CODE_MISMATCH, "conflicting duplicate ED chunks")
            else:
                done = reassembly.complete or reassembly.received.is_complete(check.expected[2])
        else:
            try:
                _, _, fresh_ranges, completed = reassembly.record(t_sn, length, t_st)
                for start, end in fresh_ranges:  # one, unless a partial duplicate
                    check.add_units(chunk, start - t_sn, end - t_sn)
            except (VirtualReassemblyError, ChunkError) as exc:
                check.fail(REASON_REASSEMBLY, str(exc))
                done = False
            else:
                # Consistency checks (Section 4, last paragraph).
                delta = c_sn - t_sn
                if check.c_minus_t is None:
                    check.c_minus_t = delta
                elif delta != check.c_minus_t:
                    check.fail(
                        REASON_CONSISTENCY,
                        f"(C.SN - T.SN) changed from {check.c_minus_t} to {delta}",
                    )
                delta = c_sn - x_sn
                known = check.x_deltas.setdefault(x_id, delta)
                if delta != known:
                    check.fail(
                        REASON_CONSISTENCY,
                        f"(C.SN - X.SN) for X.ID {x_id} changed from {known} to {delta}",
                    )
                # Completion by the ED chunk's unit count when T.ST never
                # arrived: if every unit [0, total) is present but the ST bit
                # was corrupted away, virtual reassembly alone would wait
                # forever; the count makes that an immediate verdict.
                expected = check.expected
                done = completed or (
                    expected is not None and reassembly.received.is_complete(expected[2])
                )
        # Hard structural failures need not wait for completion.
        if not (done and check.expected is not None) and (
            check.failure is None or check.failure[0] == REASON_CODE_MISMATCH
        ):
            return []
        checks[key] = None
        verdict = check.verdict()
        self._count(verdict)
        return [verdict]

    def abort_pending(self) -> list[TpduVerdict]:
        """Classify every unfinished TPDU as a reassembly failure."""
        verdicts = []
        for key, check in self._checkers.items():
            if check is not None:
                self._checkers[key] = None
                verdict = check.verdict(abandoned=True)
                self._count(verdict)
                verdicts.append(verdict)
        return verdicts

    def pending(self) -> list[tuple[int, int]]:
        """(C.ID, T.ID) keys of TPDUs still awaiting data or ED."""
        return [key for key, check in self._checkers.items() if check is not None]

    def gaps(self, c_id: int, t_ids: range) -> list[tuple[int, list[tuple[int, int]]]]:
        """(T.ID, the unit ranges it lacks) of each pending TPDU among
        *t_ids*: its virtual reassembly's missing ranges, the ED chunk
        counted as the unit past its last, and a tail nothing bounds yet
        (neither T.ST nor the ED chunk seen) ending at
        :data:`~repro.core.types.OPEN_END`."""
        out = []
        for t_id in t_ids:
            check = self._checkers.get((c_id, t_id))
            if check is None:
                continue
            reassembly, expected = check.reassembly, check.expected
            if expected is not None:
                horizon = expected[2]
            elif reassembly.total_units is not None:
                horizon = reassembly.total_units + 1  # the data and the ED chunk
            else:
                horizon = OPEN_END
            missing = reassembly.received.missing(horizon)
            if missing:
                out.append((t_id, missing))
        return out

    def evict(self, c_id: int, t_id: int) -> None:
        """Drop state for a verdicted TPDU."""
        self._checkers.pop((c_id, t_id), None)

    def _count(self, verdict: TpduVerdict) -> None:
        """One verdict's accounting, published as it is made: verdicts
        come once per TPDU, not once per chunk."""
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        if verdict.ok:
            self.verified += 1
        else:
            self.corrupted += 1
            if verdict.reason == REASON_CODE_MISMATCH:
                self.code_mismatches += 1
            elif verdict.reason == REASON_REASSEMBLY:
                self.reassembly_errors += 1
            elif verdict.reason == REASON_CONSISTENCY:
                self.consistency_failures += 1
        if before is not None:
            _TALLIES.publish(before, self)
        journey = obs_provenance._tracker
        if journey is not None:
            journey.emit(
                "verified", verdict.c_id, 0, 0, level="tpdu",
                t_id=verdict.t_id, ok=verdict.ok, reason=verdict.reason,
            )
