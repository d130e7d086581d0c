"""A conversation at the price of its labels: few objects per conversation.

Chunks are self-describing, so one endpoint can hold any number of
conversations (Section 2, Appendix A), and each should cost about what
its labels cost.  This guard counts the GC-tracked objects a conversation
leaves behind on a sharded endpoint pair (eight shards, as ``sharded_1k``
runs): one opened locally (its sender side) and one established by an
arriving SIGNALING chunk (its receiver side), each the ``gc.get_objects()``
delta around the call, median of 50.  The events a receive call returns
are dropped before counting; the configuration an opener passes in is
the caller's.

The bound is the two sides together: :data:`OBJECTS_PER_CONVERSATION`.
The test takes its count in a fresh interpreter: ``gc.get_objects()``
walks every tracked object, and inside a test session those are the
whole suite's.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from repro.core.packet import pack_chunks
from repro.netsim.shardloop import ShardedLoop
from repro.transport.connection import ConnectionConfig, build_signaling_chunk
from repro.transport.shard import ShardedEndpoint

#: GC-tracked objects per conversation, opened side plus established side.
OBJECTS_PER_CONVERSATION = 18
SAMPLES = 50
REPO = Path(__file__).parents[2]


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def objects_per_conversation(samples: int = SAMPLES) -> tuple[float, float]:
    """(objects per opened, per established conversation), medians."""
    loop = ShardedLoop()
    sender = ShardedEndpoint(loop, shards=8)
    receiver = ShardedEndpoint(ShardedLoop(), shards=8)
    opened, established = [], []
    for cid in range(1, samples + 1):
        config = ConnectionConfig(connection_id=cid, tpdu_units=64)
        before = _tracked()
        sender.open_connection(config)
        opened.append(_tracked() - before)
        frame = pack_chunks([build_signaling_chunk(config)], 1500)[0].encode()
        before = _tracked()
        receiver.receive_packet(frame)  # the returned events are dropped here
        established.append(_tracked() - before)
        assert receiver.connection(cid) is not None
    return statistics.median(opened), statistics.median(established)


def test_a_conversation_leaves_few_objects_on_each_side():
    code = ("import json; from tests.transport.test_objects_per_conversation import "
            "objects_per_conversation; print(json.dumps(objects_per_conversation()))")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    counted = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True, text=True,
                             capture_output=True, env={**os.environ, "PYTHONPATH": path})
    opened, established = json.loads(counted.stdout)
    assert opened + established <= OBJECTS_PER_CONVERSATION, (opened, established)
