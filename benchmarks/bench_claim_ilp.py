"""CLAIM-ILP: Integrated Layer Processing (Section 1).

Paper: chunks enable ILP — "a single context retrieval is required per
chunk and the chunk payload is processed uniformly by all protocol
functions" — so checksum, decryption and presentation conversion fuse
into one pass instead of one buffer-walk per layer.

Reproduction: run a 3-layer protocol stack (checksum, decrypt,
byteswap) both layered and integrated over the same words; report
memory traffic (the paper's currency) and wall time; assert identical
results with a >2x traffic reduction.  ``paper.ilp`` is that layered
reference.  The live column measures the code that runs:
``ChunkTransportReceiver`` on a reversed MTU-296 transfer, where each
chunk is decoded, checked and placed in one step — its data touches per
delivered byte are a figure; its Python calls per DATA chunk are printed
only, since they depend on the interpreter.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

import repro
from _common import print_table, register_bench, scaled
from repro.core.packet import pack_chunks, repack
from repro.core.types import ChunkType
from repro.paper.ilp import (
    byteswap_function,
    checksum_function,
    run_integrated,
    run_layered,
    xor_decrypt_function,
)
from repro.transport.connection import ConnectionConfig
from repro.transport.receiver import ChunkTransportReceiver
from repro.transport.sender import ChunkTransportSender

WORDS = [(i * 2654435761) & 0xFFFFFFFF for i in range(8192)]
STACK = [checksum_function(), xor_decrypt_function(), byteswap_function()]
#: the live transfer: 64 KiB in TPDUs of 256 units, MTU 1500 repacked to 296.
LIVE_BYTES = 64 * 1024


def live_receive(nbytes: int = LIVE_BYTES, count_calls: bool = False) -> dict[str, float]:
    """Receive a reversed MTU-296 transfer through ``ChunkTransportReceiver``.

    Returns the data touches per delivered byte and, when *count_calls*,
    the Python calls into ``repro`` per DATA chunk (``sys.setprofile``).
    """
    payload = random.Random(27).randbytes(nbytes)
    sender = ChunkTransportSender(ConnectionConfig(connection_id=9, tpdu_units=256))
    chunks = [sender.establishment_chunk()]
    chunks += sender.send_frame(payload, end_of_connection=True)
    packets = repack(pack_chunks(chunks, 1500), 296)
    data_chunks = sum(c.type is ChunkType.DATA for p in packets for c in p.chunks)
    frames = [packet.encode() for packet in reversed(packets)]
    package = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    receiver = ChunkTransportReceiver()
    if count_calls:
        sys.setprofile(count)
    try:
        for frame in frames:
            receiver.receive_packet(frame)
    finally:
        sys.setprofile(None)
    assert receiver.stream_bytes() == payload
    assert receiver.verified_tpdus() == sender.tpdus_sent
    result = {"touches_per_byte": receiver.stream.bytes_placed / len(payload)}
    if count_calls:
        result["calls_per_data_chunk"] = calls / data_chunks
    return result


def test_identical_results():
    layered = run_layered(WORDS, STACK)
    integrated = run_integrated(WORDS, STACK)
    assert layered.words == integrated.words
    assert layered.accumulators == integrated.accumulators


def test_memory_traffic_reduction():
    layered = run_layered(WORDS, STACK)
    integrated = run_integrated(WORDS, STACK)
    ratio = layered.touches_per_byte() / integrated.touches_per_byte()
    assert ratio >= 2.0  # 5 touches vs 2 for this stack


def test_traffic_grows_per_layer_only_when_layered():
    shallow = [checksum_function()]
    deep = STACK + [xor_decrypt_function(0x13572468)]
    assert run_integrated(WORDS, deep).touches_per_byte() == pytest.approx(2.0)
    layered_shallow = run_layered(WORDS, shallow).touches_per_byte()
    layered_deep = run_layered(WORDS, deep).touches_per_byte()
    assert layered_deep > layered_shallow


def test_live_receiver_touches_each_byte_once():
    assert live_receive()["touches_per_byte"] == 1.0


def test_layered_wall_time(benchmark):
    result = benchmark(run_layered, WORDS, STACK)
    assert result.words


def test_integrated_wall_time(benchmark):
    result = benchmark(run_integrated, WORDS, STACK)
    assert result.words


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: layered-vs-integrated touches per stack depth."""
    words = WORDS[: scaled(len(WORDS), payload_scale, minimum=512)]
    figures: dict[str, object] = {"words": len(words)}
    for depth in (1, 3):
        stack = (STACK + [xor_decrypt_function(0x9999)])[:depth]
        layered = run_layered(words, stack).touches_per_byte()
        integrated = run_integrated(words, stack).touches_per_byte()
        figures[f"depth_{depth}.layered_touches"] = layered
        figures[f"depth_{depth}.integrated_touches"] = integrated
    live = live_receive(scaled(LIVE_BYTES, payload_scale, minimum=4096))
    figures["live.touches_per_byte"] = live["touches_per_byte"]
    return figures


def main():
    rows = [("stack depth", "layered touches/byte", "integrated touches/byte",
             "traffic ratio")]
    for depth in (1, 2, 3, 4):
        stack = (STACK + [xor_decrypt_function(0x9999)])[:depth]
        layered = run_layered(WORDS, stack).touches_per_byte()
        integrated = run_integrated(WORDS, stack).touches_per_byte()
        rows.append((depth, layered, integrated, layered / integrated))
    print_table("CLAIM-ILP — memory traffic, layered vs integrated", rows)
    print("paper's claim: ILP keeps memory traffic flat as layers stack;")
    print("conventional per-layer passes pay the bus once or twice per layer.")
    live = live_receive(count_calls=True)
    print_table("CLAIM-ILP — live receive path (ChunkTransportReceiver, reversed MTU 296)", [
        ("data touches/byte", "Python calls per DATA chunk (this interpreter)"),
        (live["touches_per_byte"], round(live["calls_per_data_chunk"], 1)),
    ])


if __name__ == "__main__":
    main()
