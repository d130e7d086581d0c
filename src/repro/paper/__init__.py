"""Figure models: what the paper measures the chunk transfer against.

No transfer runs these modules; the benchmarks import them to reproduce
the paper's figures, claims and Appendix B comparison.  They may import
every layer of the transfer path, and no layer of it may import them
(``layering``, docs/architecture.md).  The package binds each module by
name and re-exports no other name: import a model from its module.

Receivers and hosts (Section 3.3):

- :mod:`~repro.paper.receiver` — the immediate, reorder and reassemble
  receiver strategies;
- :mod:`~repro.paper.interrupts` — per-packet and per-PDU (Davie) NICs;
- :mod:`~repro.paper.ilp` — layered against integrated word functions;
- :mod:`~repro.paper.parallel` — splitting a chunk stream over
  processing units.

Error detection (Section 3.2, Table 1):

- :mod:`~repro.paper.crc` / :mod:`~repro.paper.inet` — the CRC-32 and
  Internet checksums WSC-2 is compared against;
- :mod:`~repro.paper.erasure` — repairing erased words from the WSC-2
  parities.

Networks (Section 1):

- :mod:`~repro.paper.multipath` — AURORA-style striping with skew;
- :mod:`~repro.paper.turner` — Turner's drop-the-rest-of-the-PDU queue;
- :mod:`~repro.paper.trace` — arrival records and disorder metrics.

Header compression (Appendix A):

- :mod:`~repro.paper.packetcomp` / :mod:`~repro.paper.huffman` — the
  packet-scope compressor and its Huffman code.

Baseline protocols (Appendix B):

- :mod:`~repro.paper.ipfrag` — IP fragmentation with bounded reassembly
  buffers; :mod:`~repro.paper.pathmtu` — path-MTU discovery;
- :mod:`~repro.paper.xtp` — XTP's shrink-the-PDU and SUPER packets;
- :mod:`~repro.paper.aal` — AAL5 / AAL3-4 cell framing;
- :mod:`~repro.paper.inorder` — a reorder-before-process transport;
- :mod:`~repro.paper.flagstream` — flag-delimited framing;
  :mod:`~repro.paper.framing_info` — the framing-feature matrix.

Encryption (the SIZE field's 64-bit block):

- :mod:`~repro.paper.xtea` — the block cipher;
- :mod:`~repro.paper.modes` — order-dependent (CBC) and
  order-independent (position-keyed) modes.
"""

from repro.paper import (
    aal,
    crc,
    erasure,
    flagstream,
    framing_info,
    huffman,
    ilp,
    inet,
    inorder,
    interrupts,
    ipfrag,
    modes,
    multipath,
    packetcomp,
    parallel,
    pathmtu,
    receiver,
    trace,
    turner,
    xtea,
    xtp,
)

__all__ = [
    "aal",
    "crc",
    "erasure",
    "flagstream",
    "framing_info",
    "huffman",
    "ilp",
    "inet",
    "inorder",
    "interrupts",
    "ipfrag",
    "modes",
    "multipath",
    "packetcomp",
    "parallel",
    "pathmtu",
    "receiver",
    "trace",
    "turner",
    "xtea",
    "xtp",
]
