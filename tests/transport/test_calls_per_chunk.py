"""One step per chunk, counted: the live receiver makes few Python calls.

Integrated layer processing (the paper's consequence of labelling, §1):
once a chunk says where it belongs, decoding, checking and placing it
are one step on its label, not a descent through layers.  This guard
counts, with ``sys.setprofile``, every Python call into ``repro`` while
a reversed MTU-296 transfer is received, and holds two bounds:

- calls per DATA chunk — the decode loop, placement, virtual reassembly
  and the WSC-2 fold, with the per-packet envelope work spread over the
  chunks — stay at most :data:`CALLS_PER_DATA_CHUNK`;
- with no obs session installed, no call lands in ``repro/obs/``: the
  receiver publishes its tallies once per call, and only when a
  registry is installed.

The same count holds the endpoint that carries many conversations to one
step per packet: over one smoke-scale pass of an end-to-end benchmark
workload (after a warm-up pass, as ``tests/obs/test_no_calls_uninstalled``
runs them), every call into ``repro`` — sender, network and receiver —
per chunk the codec decoded stays at most :data:`CALLS_PER_DECODED_CHUNK`.
``recv_disorder`` (no endpoint) is the bypass.

The same passes hold module-level state still: a scheduled callback that
mutates a module-level list, dict or set, or rebinds a module global,
lets event order leak between conversations and runs.  Every
module-level name of every loaded ``repro`` module is fingerprinted
before and after each measured pass (a container by its length and
``repr``, any other value by identity), and the two must be equal.

Bounds, not exact counts: interpreters differ in what they inline
(CPython 3.12 inlines comprehensions).
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter, deque

import pytest

import repro
from bench_e2e import workloads
from repro.core import codec
from repro.core import packet as packet_mod
from repro.core.types import ChunkType
from repro.obs import (
    active_flight,
    active_journey,
    active_registry,
    install_flight,
    install_journey,
    uninstall_flight,
    uninstall_journey,
)
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

CALLS_PER_DATA_CHUNK = 23
OBS_CALLS_PER_PACKET = 0
#: smoke-scale workload -> calls into ``repro`` per decoded chunk (the
#: values this tree measures on CPython 3.11, rounded up).
CALLS_PER_DECODED_CHUNK = {
    "mux_256": 27, "sharded_1k": 31, "recv_disorder": 17, "small_frames": 25, "lossy_path": 28,
}
SEED = 1993
SMOKE_SCALE = 1 / 16

_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_OBS = os.path.join(_PACKAGE, "obs") + os.sep
_CONTAINERS = (list, dict, set, bytearray, deque)


def _calls_while_receiving() -> tuple[Counter, int, int]:
    """(calls per repro file, packets, DATA chunks) of one reversed transfer."""
    payload = random.Random(27).randbytes(64 * 1024)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=256))
    chunks = [sender.establishment_chunk()]
    chunks += sender.send_frame(payload, end_of_connection=True)
    packets = packet_mod.repack(packet_mod.pack_chunks(chunks, 1500), 296)
    data_chunks = sum(c.type is ChunkType.DATA for p in packets for c in p.chunks)
    frames = [packet.encode() for packet in reversed(packets)]

    calls: Counter = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls[frame.f_code.co_filename] += 1

    # Nothing installed, whatever the suite runs under (CI flies it under
    # a journey tracker).
    assert active_registry() is None
    tracker = active_journey()
    uninstall_journey()
    receiver = ChunkTransportReceiver()
    sys.setprofile(count)
    try:
        for frame in frames:
            receiver.receive_packet(frame)
    finally:
        sys.setprofile(None)
        if tracker is not None:
            install_journey(tracker)

    assert receiver.stream_bytes() == payload
    assert receiver.verified_tpdus() == sender.tpdus_sent == 64
    assert receiver.pending_tpdus() == [] and receiver.corrupted_tpdus() == 0
    return calls, len(frames), data_chunks


def test_reversed_mtu_296_transfer_is_one_step_per_chunk():
    calls, packets, data_chunks = _calls_while_receiving()
    assert data_chunks > 300
    per_chunk = sum(calls.values()) / data_chunks
    obs_per_packet = sum(n for name, n in calls.items() if name.startswith(_OBS)) / packets
    assert per_chunk <= CALLS_PER_DATA_CHUNK, (per_chunk, calls.most_common(8))
    assert obs_per_packet <= OBS_CALLS_PER_PACKET, obs_per_packet


def module_state() -> dict[str, object]:
    """Every module-level name of a loaded ``repro`` module: a container
    by (length, ``repr``), any other value by identity."""
    return {
        f"{name}.{key}": (len(value), repr(value)) if isinstance(value, _CONTAINERS) else id(value)
        for name, module in list(sys.modules.items()) if name.split(".")[0] == "repro"
        for key, value in vars(module).items() if not key.startswith("__")
    }


def calls_per_decoded_chunk(name: str) -> tuple[int, int]:
    """(calls into ``repro``, chunks the codec decoded) over one smoke-scale
    pass of workload *name*, with nothing installed: no journey tracker
    or flight recorder.  The pass must leave module-level state as it
    found it."""
    decode = codec._decode.__code__
    counts = {"calls": 0, "decoded": 0}

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            counts["calls"] += 1
        elif event == "return" and frame.f_code is decode and arg is not None:
            counts["decoded"] += len(arg[0])  # (chunks, offset)

    assert active_registry() is None
    tracker, recorder = active_journey(), active_flight()
    uninstall_journey()
    uninstall_flight()
    try:
        workload = workloads.WORKLOADS[name]
        workload.run(workload.build(SEED, SMOKE_SCALE))  # warm-up
        inputs = workload.build(SEED, SMOKE_SCALE)
        shared = module_state()
        sys.setprofile(count)
        try:
            state = workload.run(inputs)
        finally:
            sys.setprofile(None)
        after = module_state()
        moved = sorted(key for key in shared.keys() & after.keys() if shared[key] != after[key])
        assert not moved, f"{name} changed module-level state: {moved}"
    finally:
        if tracker is not None:
            install_journey(tracker)
        if recorder is not None:
            install_flight(recorder)
    result = workload.check(inputs, state)
    assert not result.failed, result.problems
    return counts["calls"], counts["decoded"]


@pytest.mark.parametrize("name", sorted(CALLS_PER_DECODED_CHUNK))
def test_a_workload_pass_is_one_step_per_decoded_chunk(name):
    calls, decoded = calls_per_decoded_chunk(name)
    assert decoded > 100
    assert calls / decoded <= CALLS_PER_DECODED_CHUNK[name], (calls, decoded)
