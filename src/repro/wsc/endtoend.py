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
from repro.core.types import ChunkType
from repro.core.virtual import PduState
from repro.obs import Tallies
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime
from repro.wsc.invariant import EdPayload, TpduInvariant, parse_ed_chunk

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


class _TpduChecker:
    """Receiver-side state for one (connection, TPDU) pair: its WSC-2
    invariant (which holds the IDs), its virtual reassembly, the ED
    payload once seen, the consistency deltas and the first failure."""

    __slots__ = ("invariant", "reassembly", "expected", "c_minus_t", "x_deltas", "failure")

    def __init__(self, c_id: int, t_id: int) -> None:
        self.invariant = TpduInvariant(c_id, t_id)
        self.reassembly = PduState()
        self.expected: EdPayload | None = None
        self.c_minus_t: int | None = None
        self.x_deltas: dict[int, int] = {}
        self.failure: tuple[str, str] | None = None

    def fail(self, reason: str, detail: str) -> None:
        if self.failure is None:
            self.failure = (reason, detail)

    # ------------------------------------------------------------------

    def add_ed(self, chunk: Chunk) -> bool:
        """Record the ED chunk; returns True if the TPDU just completed."""
        try:
            payload = parse_ed_chunk(chunk)
        except ChunkError as exc:
            self.fail(REASON_REASSEMBLY, str(exc))
            return False
        if self.expected is not None and self.expected != payload:
            self.fail(REASON_CODE_MISMATCH, "conflicting duplicate ED chunks")
            return False
        self.expected = payload
        reassembly = self.reassembly
        return reassembly.complete or reassembly.received.is_complete(payload.total_units)

    # ------------------------------------------------------------------

    def _verdict(self, reason: str | None = None, detail: str = "") -> TpduVerdict:
        """The TPDU's verdict: ok exactly when there is no *reason*."""
        invariant = self.invariant
        return TpduVerdict(invariant.c_id, invariant.t_id, reason is None, reason, detail)

    def verdict(self) -> TpduVerdict:
        """Final verdict; call once data + ED indicate completion."""
        if self.failure is not None:
            return self._verdict(*self.failure)
        assert self.expected is not None
        total = self.reassembly.total_units
        if total is None:
            return self._verdict(
                REASON_REASSEMBLY, "all units present but no T.ST seen (ST bit corrupted?)"
            )
        if total != self.expected.total_units:
            return self._verdict(
                REASON_REASSEMBLY,
                f"reassembled {total} units but ED chunk declares {self.expected.total_units}",
            )
        if self.invariant.matches(self.expected.p0, self.expected.p1):
            return self._verdict()
        return self._verdict(REASON_CODE_MISMATCH, "WSC-2 invariant differs from received parity")

    def abort_verdict(self) -> TpduVerdict:
        """Verdict for a TPDU abandoned incomplete (timeout path)."""
        if self.failure is not None:
            return self._verdict(*self.failure)
        return self._verdict(
            REASON_REASSEMBLY,
            f"virtual reassembly never completed (missing unit ranges "
            f"{self.reassembly.missing()}, ED {'present' if self.expected else 'absent'})",
        )


@dataclass
class EndToEndReceiver:
    """Connection-demultiplexing end-to-end verifier.

    Feed every arriving chunk to :meth:`receive`; completed TPDUs come
    back as verdicts immediately (possibly more than one per call when
    an ED chunk unblocks a finished TPDU).  Call :meth:`abort_pending`
    at teardown to classify TPDUs that never completed.
    """

    #: in-flight checkers; a verdicted TPDU keeps its key with ``None`` so a
    #: late duplicate is recognised without keeping the TPDU's state alive.
    _checkers: dict[tuple[int, int], _TpduChecker | None] = field(default_factory=dict)
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
        rest is left to the WSC-2 code at completion."""
        ctype, size, length, c_id, c_sn, c_st, t_id, t_sn, t_st, x_id, x_sn, x_st, payload = chunk
        if ctype is not _DATA and ctype is not _ED:
            return []  # signaling/ACK chunks are not TPDU-framed data
        key = (c_id, t_id)
        try:
            checker = self._checkers[key]
        except KeyError:
            checker = self._checkers[key] = _TpduChecker(c_id, t_id)
        if checker is None:
            return []  # late duplicate of an already-verdicted TPDU
        if ctype is _ED:
            done = checker.add_ed(chunk)
        else:
            reassembly = checker.reassembly
            try:
                arrival = reassembly.record(t_sn, length, t_st)
                for start, end in arrival.fresh_ranges:  # one, unless a partial duplicate
                    checker.invariant.add_units(chunk, start - t_sn, end - t_sn)
            except (VirtualReassemblyError, ChunkError) as exc:
                checker.fail(REASON_REASSEMBLY, str(exc))
                done = False
            else:
                # Consistency checks (Section 4, last paragraph).
                delta = c_sn - t_sn
                if checker.c_minus_t is None:
                    checker.c_minus_t = delta
                elif delta != checker.c_minus_t:
                    checker.fail(
                        REASON_CONSISTENCY,
                        f"(C.SN - T.SN) changed from {checker.c_minus_t} to {delta}",
                    )
                delta = c_sn - x_sn
                known = checker.x_deltas.setdefault(x_id, delta)
                if delta != known:
                    checker.fail(
                        REASON_CONSISTENCY,
                        f"(C.SN - X.SN) for X.ID {x_id} changed from {known} to {delta}",
                    )
                # Completion by the ED chunk's unit count when T.ST never
                # arrived: if every unit [0, total) is present but the ST bit
                # was corrupted away, virtual reassembly alone would wait
                # forever; the count makes that an immediate verdict.
                expected = checker.expected
                done = arrival.completed or (
                    expected is not None and reassembly.received.is_complete(expected.total_units)
                )
        # Hard structural failures need not wait for completion.
        if (done and checker.expected is not None) or (
            checker.failure is not None and checker.failure[0] != REASON_CODE_MISMATCH
        ):
            self._checkers[key] = None
            verdict = checker.verdict()
            self._count(verdict)
            return [verdict]
        return []

    def abort_pending(self) -> list[TpduVerdict]:
        """Classify every unfinished TPDU as a reassembly failure."""
        verdicts = []
        for key, checker in self._checkers.items():
            if checker is not None:
                self._checkers[key] = None
                verdict = checker.abort_verdict()
                self._count(verdict)
                verdicts.append(verdict)
        return verdicts

    def pending(self) -> list[tuple[int, int]]:
        """(C.ID, T.ID) keys of TPDUs still awaiting data or ED."""
        return [key for key, checker in self._checkers.items() if checker is not None]

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
