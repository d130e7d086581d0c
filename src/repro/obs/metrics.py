"""Zero-dependency metric instruments and their registry.

The observability layer measures the paper's quantitative claims from
inside the simulator: data touches and bus crossings (Section 1 /
Figure 1), retransmissions and disorder (Section 3.3), and the Table 1
verification outcomes.  Three instrument kinds cover those shapes:

- :class:`Counter` — monotonically increasing totals (frames sent,
  bytes touched, TPDUs verified);
- :class:`Gauge` — instantaneous levels with a high-water mark (queue
  depth, reassembly-buffer occupancy — the lock-up quantities);
- :class:`Histogram` — distributions over fixed log-scale (power-of-
  two) buckets (out-of-order distance, ACK batch size).

All time comes from a caller-supplied clock (the event loop's ``now``),
never the wall clock, so instrumented runs stay exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

__all__ = [
    "EXP_LO",
    "EXP_HI",
    "EXP_ZERO",
    "bucket_exponent",
    "bucket_label",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricSample",
    "Registry",
]

#: Histogram bucket bounds are powers of two: ``2**EXP_LO .. 2**EXP_HI``.
#: ``EXP_LO`` reaches far enough down for sub-millisecond simulated
#: durations; ``EXP_HI`` far enough up for byte counts of large runs.
EXP_LO = -20
EXP_HI = 40

#: Sentinel bucket for values <= 0 (an in-order arrival has distance 0).
EXP_ZERO = EXP_LO - 1


def bucket_exponent(value: float) -> int:
    """The histogram bucket (as an exponent e, bound ``2**e``) for *value*.

    A value lands in the bucket whose upper bound is the smallest power
    of two >= value; values <= 0 land in the :data:`EXP_ZERO` bucket.
    """
    if value <= 0:
        return EXP_ZERO
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    if mantissa == 0.5:
        exponent -= 1
    return min(max(exponent, EXP_LO), EXP_HI)


def bucket_label(exponent: int) -> str:
    """Human-readable upper bound of a bucket exponent."""
    if exponent == EXP_ZERO:
        return "<=0"
    return f"<=2^{exponent}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("scope", "name", "help", "value")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        self.value += amount

    def sample(self) -> dict[str, object]:
        return {"value": self.value}


class Gauge:
    """An instantaneous level that also remembers its high-water mark."""

    __slots__ = ("scope", "name", "help", "value", "high_water")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self.value: float = 0
        self.high_water: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.set(self.value - amount)

    def sample(self) -> dict[str, object]:
        return {"value": self.value, "high_water": self.high_water}


class Histogram:
    """A distribution over fixed power-of-two buckets.

    Buckets are stored sparsely, keyed by exponent (bucket upper bound
    ``2**e``); see :func:`bucket_exponent`.
    """

    __slots__ = ("scope", "name", "help", "count", "total", "minimum", "maximum", "buckets")

    def __init__(self, scope: str, name: str, help: str = "") -> None:
        self.scope = scope
        self.name = name
        self.help = help
        self.count: int = 0
        self.total: float = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        exponent = bucket_exponent(value)
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def sample(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
        }


Instrument = Counter | Gauge | Histogram
_I = TypeVar("_I", Counter, Gauge, Histogram)


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One instrument's exported state."""

    kind: str
    scope: str
    name: str
    help: str
    data: dict[str, object]

    def as_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "kind": self.kind,
            "scope": self.scope,
            "name": self.name,
        }
        if self.help:
            record["help"] = self.help
        record.update(self.data)
        return record


def _zero_clock() -> float:
    return 0.0


@dataclass
class Registry:
    """Holds instruments keyed by (scope, name); creates them on demand.

    One registry corresponds to one observed run.  The ``clock``
    attribute is the run's simulated time (shared with the tracer when
    installed through :func:`repro.obs.install`).  Instrumented code
    writes through :attr:`instruments`, where every declared series
    exists from the moment the registry is installed.
    """

    clock: Callable[[], float] = _zero_clock
    instruments: dict[tuple[str, str], Instrument] = field(default_factory=dict)

    def now(self) -> float:
        """Current time per the registry's clock (sim time once bound)."""
        return self.clock()

    # -- instrument factories (get-or-create, kind-checked) -------------

    def counter(self, scope: str, name: str, help: str = "") -> Counter:
        return self._get(Counter, scope, name, help)

    def gauge(self, scope: str, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, scope, name, help)

    def histogram(self, scope: str, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, scope, name, help)

    def _get(self, kind: type[_I], scope: str, name: str, help: str) -> _I:
        existing = self.instruments.get((scope, name))
        if existing is None:
            instrument = kind(scope, name, help)
            self.instruments[(scope, name)] = instrument
            return instrument
        if not isinstance(existing, kind):
            raise ValueError(
                f"{scope}.{name} is a {type(existing).__name__}, not a {kind.__name__}"
            )
        return existing

    # -- export ----------------------------------------------------------

    def samples(self) -> list[MetricSample]:
        """Every instrument's state, sorted by (scope, name)."""
        out: list[MetricSample] = []
        for (scope, name), instrument in sorted(self.instruments.items()):
            kind = type(instrument).__name__.lower()
            out.append(
                MetricSample(kind, scope, name, instrument.help, instrument.sample())
            )
        return out

    def get(self, scope: str, name: str) -> Instrument | None:
        """Look up an instrument without creating it."""
        return self.instruments.get((scope, name))
