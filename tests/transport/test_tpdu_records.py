"""A TPDU's check is a few slotted records, and a chunk's is none.

The receiver verifies each TPDU incrementally (Section 4): per in-flight
TPDU it keeps a checker whose WSC-2 invariant *is* the parity
accumulator and whose virtual reassembly is one interval set; per chunk
it keeps nothing.  These guards fail if a wrapper object, a per-instance
``__dict__`` or a stored per-chunk arrival comes back.
"""

from __future__ import annotations

import gc

from repro.core.types import ChunkType
from repro.core.virtual import Arrival, PduState
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender
from repro.wsc.invariant import TpduInvariant
from repro.wsc.wsc2 import Wsc2Accumulator


def _reachable(root, kind) -> int:
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found += isinstance(obj, kind)
        stack.extend(gc.get_referents(obj))
    return found


def test_pending_tpdus_hold_slotted_records_and_no_arrivals():
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=16))
    chunks = sender.send_frame(b"\x3c" * 256)  # four TPDUs of 64 bytes
    receiver = ChunkTransportReceiver()
    for chunk in chunks:
        if chunk.type is ChunkType.DATA:  # no ED chunk: every TPDU stays pending
            receiver.receive_chunk(chunk)

    checkers = [c for c in receiver.verifier._checkers.values() if c is not None]
    assert len(checkers) == len(receiver.pending_tpdus()) == 4
    for checker in checkers:
        invariant, reassembly = checker.invariant, checker.reassembly
        assert type(invariant) is TpduInvariant and isinstance(invariant, Wsc2Accumulator)
        assert invariant.accumulator is invariant
        assert type(reassembly) is PduState and reassembly.complete
        for record in (checker, invariant, reassembly):
            assert not hasattr(record, "__dict__"), type(record).__name__
    assert _reachable(receiver, Arrival) == 0


def test_the_records_keep_their_public_shapes():
    assert Wsc2Accumulator(p0=5, p1=7).value() == (5, 7)
    assert Arrival._fields == ("new_units", "duplicate_units", "fresh_ranges", "completed")
    invariant = TpduInvariant(c_id=3, t_id=4)
    assert (invariant.c_id, invariant.t_id) == (3, 4)
    assert invariant.matches(*invariant.value())
