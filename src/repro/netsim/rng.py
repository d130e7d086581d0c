"""Deterministic randomness for simulations.

All stochastic behaviour (loss, corruption, duplication, jitter) draws
from per-component :class:`random.Random` streams derived from one run
seed, so every experiment is exactly reproducible and components do not
perturb each other's streams when reconfigured.
"""

from __future__ import annotations

import random

__all__ = ["substream", "default_rng", "corrupt_bytes"]


def default_rng() -> random.Random:
    """A deterministic stream for components created without one.

    Always seed 0: a component that forgets to wire in a
    :func:`substream` still behaves identically run to run, it just
    shares its draws with every other forgetful component.  (An
    *unseeded* ``random.Random()`` default was exactly the
    reproducibility bug the ambient-authority lint pass exists to catch.)
    """
    return random.Random(0)


def substream(seed: int, *labels: object) -> random.Random:
    """A named child stream of the run *seed*.

    ``substream(42, "link", 3)`` always yields the same stream, no
    matter what other components exist.
    """
    return random.Random(f"{seed}/{'/'.join(map(str, labels))}")


def corrupt_bytes(data: bytes, rng: random.Random, flips: int = 1) -> bytes:
    """Return *data* with *flips* random single-bit errors applied."""
    if not data:
        return data
    out = bytearray(data)
    for _ in range(flips):
        index = rng.randrange(len(out))
        out[index] ^= 1 << rng.randrange(8)
    return bytes(out)
