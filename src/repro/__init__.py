"""repro — a reproduction of Feldmeier, "A Data Labelling Technique for
High-Performance Protocol Processing and Its Consequences" (SIGCOMM '93).

Subpackages on the transfer path, in layering order:

- :mod:`repro.core` — chunks, fragmentation, reassembly, packets, wire
  codec, virtual reassembly;
- :mod:`repro.wsc` — GF(2^32), the WSC-2 code, the fragmentation-
  invariant TPDU layout, and the end-to-end verification matrix;
- :mod:`repro.netsim` — the discrete-event network substrate (links,
  reorder models, shared bottlenecks, chunk-aware routers);
- :mod:`repro.host` — the touch ledger, placement buffers and the
  shared placement budget;
- :mod:`repro.transport` — a chunk transport (sender/receiver, endpoint,
  shards) with per-TPDU WSC-2 and identifier-preserving retransmission;
- :mod:`repro.app` — bulk transfer, video playout and adversarial
  applications.

Above them, :mod:`repro.paper` holds the figure models the paper
measures chunks against: the reorder and reassemble receivers, NIC and
ILP models, CRC and Internet checksums, Turner's drop policy, multipath
skew, Appendix A header compression, IP fragmentation, XTP, AAL, and XTEA
with its cipher modes.  No transfer imports it.  Beside the stack,
:mod:`repro.obs` is the instrumentation and :mod:`repro.analysis` the
lifecycle checker.

Quickstart::

    from repro.transport import ConnectionConfig, ChunkTransportSender
    from repro.transport import ChunkTransportReceiver
    from repro.core import pack_chunks

    config = ConnectionConfig(connection_id=7, tpdu_units=64)
    sender = ChunkTransportSender(config)
    receiver = ChunkTransportReceiver()

    chunks = [sender.establishment_chunk()]
    chunks += sender.send_frame(b"hello world!" * 64)
    for packet in pack_chunks(chunks, mtu=576):
        receiver.receive_packet(packet.encode())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
