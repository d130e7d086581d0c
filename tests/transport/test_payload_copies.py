"""Payload copies on the receive path, counted line by line.

The paper's budget is one touch per received byte on the immediate path
(§1, §3.3: "buffering requires moving the data twice").  The ledger
reads ``touches_per_byte == 1.0`` whatever the interpreter does, so this
census measures the interpreter instead: with ``tracemalloc`` tracing
and ``sys.settrace`` stopping at every line, call and return in
``repro``, the growth of traced memory between two stops is charged to
the line that ran in between, and each growth of at least half a
payload counts as one payload-sized allocation on that line.

A reversed MTU-9000 transfer of 256 KiB in 2,048-unit TPDUs (one DATA
chunk of 8 KiB per packet) goes through ``ChunkTransportReceiver`` and
through ``ChunkEndpoint``.  Payload-sized allocations are allowed only
where the tree makes them on purpose:

- ``codec._decode``: the chunk record's payload, exactly one per DATA
  chunk (a payload that is a view of the frame would make it none);
- ``wsc2._fold``: the run as one big integer, a bound per DATA chunk
  (interpreters differ in their integer temporaries);
- ``PlacementBuffer.place``: region growth only, a handful per transfer.

A copy anywhere else — ``data = bytearray(data)`` in ``place``, a
slice of the payload kept past its line — fails, naming
``file:function:line``.  The census sees net growth per line: a copy
freed within the line that made it is not counted.
"""

from __future__ import annotations

import os
import random
import sys
import tracemalloc
from collections import Counter

import pytest

import repro
from repro.core import packet as packet_mod
from repro.netsim.events import EventLoop
from repro.obs import (
    active_flight,
    active_journey,
    install_flight,
    install_journey,
    uninstall_flight,
    uninstall_journey,
)
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

TPDU_UNITS = 2048
PAYLOAD_BYTES = TPDU_UNITS * 4
TRANSFER_BYTES = 256 * 1024
MTU = 9000
#: where payload-sized allocations are made on purpose, as (file, function)
DECODE = ("core/codec.py", "_decode")  # exactly one per DATA chunk
FOLD, FOLD_PER_DATA_CHUNK = ("wsc/wsc2.py", "_fold"), 2
PLACE, PLACE_PER_TRANSFER = ("host/delivery.py", "place"), 4

_PACKAGE = os.path.dirname(repro.__file__) + os.sep


def _transfer() -> tuple[bytes, bytes, list[bytes]]:
    """(payload, the establishment frame, the data frames last first)."""
    payload = random.Random(9000).randbytes(TRANSFER_BYTES)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=TPDU_UNITS))
    establish = packet_mod.pack_chunks([sender.establishment_chunk()], MTU)[0].encode()
    packets = packet_mod.pack_chunks(sender.send_frame(payload, end_of_connection=True), MTU)
    return payload, establish, [packet.encode() for packet in reversed(packets)]


def census(receive, frames: list[bytes]) -> Counter:
    """Payload-sized allocations per ``(file, function, line)`` in ``repro``
    while *receive* takes each of *frames*."""
    charges: Counter = Counter()  # (code, line) -> allocations
    last = {"where": None, "mark": 0}

    def stop(where) -> None:
        current = tracemalloc.get_traced_memory()[0]
        if current - last["mark"] >= PAYLOAD_BYTES // 2 and last["where"] is not None:
            charges[last["where"]] += 1
        last["where"], last["mark"] = where, current

    def local(frame, event, arg):
        # After a return, what runs next is the rest of the caller's line.
        back = frame.f_back if event == "return" else frame
        stop((back.f_code, back.f_lineno) if back is not None else None)
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None  # charged to the repro line that called it
        stop((frame.f_code, frame.f_lineno))
        return local

    # Nothing installed, whatever the suite runs under (CI flies it under
    # a journey tracker and a flight recorder).
    tracker, recorder = active_journey(), active_flight()
    uninstall_journey()
    uninstall_flight()
    tracemalloc.start()
    sys.settrace(calls)
    try:
        for frame in frames:
            receive(frame)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
        if tracker is not None:
            install_journey(tracker)
        if recorder is not None:
            install_flight(recorder)
    return Counter({(os.path.relpath(code.co_filename, _PACKAGE), code.co_name, line): count
                    for (code, line), count in charges.items()})


def _through_receiver(establish: bytes, frames: list[bytes]) -> tuple[Counter, bytes]:
    receiver = ChunkTransportReceiver()
    receiver.receive_packet(establish)
    return census(receiver.receive_packet, frames), receiver.stream_bytes()


def _through_endpoint(establish: bytes, frames: list[bytes]) -> tuple[Counter, bytes]:
    endpoint = ChunkEndpoint(EventLoop())
    endpoint.receive_packet(establish)
    return census(endpoint.receive_packet, frames), endpoint.connection(9).stream_bytes()


@pytest.mark.parametrize("path", [_through_receiver, _through_endpoint],
                         ids=["receiver", "endpoint"])
def test_the_receive_path_copies_a_payload_once(path):
    payload, establish, frames = _transfer()
    assert len(frames) == TRANSFER_BYTES // PAYLOAD_BYTES  # one DATA chunk per packet
    charges, delivered = path(establish, frames)
    assert delivered == payload

    by_function: Counter = Counter()
    for (file, function, _), count in charges.items():
        by_function[file, function] += count
    report = "\n".join(f"{file}:{function}:{line} {count}"
                       for (file, function, line), count in sorted(charges.items()))
    assert by_function.pop(DECODE, 0) == len(frames), report
    assert by_function.pop(FOLD, 0) <= FOLD_PER_DATA_CHUNK * len(frames), report
    assert by_function.pop(PLACE, 0) <= PLACE_PER_TRANSFER, report
    assert not by_function, report
