"""End-to-end error detection: GF(2^32), WSC-2, the TPDU invariant
(Figures 5-6), the Table 1 verification matrix, and the CRC-32 /
Internet-checksum baselines the paper compares against.
"""

from repro.wsc.crc import Crc32, crc32
from repro.wsc.erasure import ErasureError, recover_erasures, repair_missing_word
from repro.wsc.endtoend import (
    REASON_CODE_MISMATCH,
    REASON_CONSISTENCY,
    REASON_REASSEMBLY,
    EndToEndReceiver,
    TpduVerdict,
)
from repro.wsc.gf32 import (
    ALPHA,
    ORDER,
    POLY,
    alpha_pow,
    gf_add,
    gf_inv,
    gf_mul,
    gf_pow,
    mul_alpha,
)
from repro.wsc.inet import InetChecksum, inet_checksum, ones_complement_add
from repro.wsc.invariant import (
    C_ID_POS,
    C_ST_POS,
    T_ID_POS,
    X_PAIR_BASE,
    EdPayload,
    TpduInvariant,
    build_ed_chunk,
    decode_tpdu,
    encode_tpdu,
    parse_ed_chunk,
)
from repro.wsc.wsc2 import (
    MAX_POSITIONS,
    Wsc2Accumulator,
    bytes_from_symbols,
    symbols_from_bytes,
    wsc2_encode,
)

__all__ = [
    "POLY",
    "ORDER",
    "ALPHA",
    "gf_add",
    "gf_mul",
    "gf_pow",
    "gf_inv",
    "alpha_pow",
    "mul_alpha",
    "MAX_POSITIONS",
    "Wsc2Accumulator",
    "wsc2_encode",
    "symbols_from_bytes",
    "bytes_from_symbols",
    "TpduInvariant",
    "EdPayload",
    "build_ed_chunk",
    "parse_ed_chunk",
    "encode_tpdu",
    "decode_tpdu",
    "T_ID_POS",
    "C_ID_POS",
    "C_ST_POS",
    "X_PAIR_BASE",
    "EndToEndReceiver",
    "TpduVerdict",
    "REASON_CODE_MISMATCH",
    "REASON_CONSISTENCY",
    "REASON_REASSEMBLY",
    "Crc32",
    "crc32",
    "ErasureError",
    "recover_erasures",
    "repair_missing_word",
    "InetChecksum",
    "inet_checksum",
    "ones_complement_add",
]
