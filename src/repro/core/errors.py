"""Exception hierarchy for the chunk protocol library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications can catch a single base class.  The subclasses distinguish the
three places where things can go wrong: building/validating chunks, moving
them through fragmentation and reassembly, and decoding them off the wire.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ChunkError",
    "FragmentationError",
    "ReassemblyError",
    "CodecError",
    "PacketError",
    "VirtualReassemblyError",
    "ErrorDetectionMismatch",
    "SignalingError",
    "ErasureError",
    "AnalysisError",
    "ObsError",
    "SimSanError",
    "EndpointError",
    "BudgetExceededError",
    "InconsistentOverlapError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ChunkError(ReproError):
    """A chunk violates a structural invariant (bad LEN, SIZE, payload...)."""


class FragmentationError(ReproError):
    """A chunk cannot be fragmented as requested.

    Raised, for example, when asked to split a control chunk (control
    information is indivisible, Section 2 of the paper) or to split a data
    chunk at a boundary that is not a multiple of its atomic unit SIZE.
    """


class ReassemblyError(ReproError):
    """Two chunks are not adjacent/compatible and cannot be merged."""


class CodecError(ReproError):
    """Bytes on the wire do not decode to a valid chunk or packet."""


class PacketError(ReproError):
    """A packet cannot hold the requested chunks, or is malformed."""


class VirtualReassemblyError(ReproError):
    """Virtual reassembly detected an inconsistency (overlap mismatch...)."""


class ErrorDetectionMismatch(ReproError):
    """End-to-end error detection rejected a PDU.

    Carries the *reason* classification used by the Table 1 reproduction:
    ``"code-mismatch"``, ``"reassembly-error"`` or ``"consistency-check"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class SignalingError(ReproError):
    """Connection signaling failed or arrived out of protocol."""


class ErasureError(ReproError):
    """Erasure repair is not possible for this pattern."""


class AnalysisError(ReproError):
    """The static analyzer could not run (bad input, baseline, config)."""


class ObsError(ReproError):
    """An observability installation is invalid (e.g. attaching a flight
    recorder while no journey tracker is installed)."""


class SimSanError(ReproError):
    """The runtime sanitizer detected mutation-after-schedule aliasing:
    a buffer captured by a scheduled callback changed between schedule
    time and dispatch time (see :mod:`repro.analysis.simsan`)."""


class EndpointError(ReproError):
    """A multiplexed endpoint operation is invalid: opening a connection
    whose C.ID is already in use, sending on a closed or evicted
    connection, or exceeding the endpoint's connection capacity."""


class InconsistentOverlapError(ReproError, ValueError):
    """A placement overlaps already-placed bytes with *different* data.

    Consistent overlaps (retransmissions, duplicated frames) are normal
    and silently merged; an inconsistent overlap means two senders — or
    one sender and an on-path forger — disagree about the stream's
    content.  TCP reassemblers resolve this silently (first-wins,
    last-wins, OS-dependent), which is exactly the ambiguity NIDS
    evasion exploits; placement instead *detects* it and refuses the
    chunk, so the disagreement is visible (the TPDU never verifies, the
    honest sender retries or gives up) rather than resolved by accident.

    Also a ``ValueError`` so callers that treat placement failures as
    chunk rejection keep working — but catch it *before* ``ValueError``
    to count it distinctly.
    """


class BudgetExceededError(ReproError, ValueError):
    """A placement was refused by the shared pool (fair share or pool
    exhaustion) rather than by a per-buffer bound.

    Also a ``ValueError`` so existing placement callers treat it as the
    chunk rejection they already handle — but distinguishable: a
    budget-refused chunk must *not* feed TPDU verification, or the TPDU
    would verify and be acknowledged without its bytes ever landing
    (silent, unrecoverable loss).  Left unverified, the sender's normal
    retransmission retries the placement — which may succeed once pool
    pressure eases — or gives up visibly.
    """
