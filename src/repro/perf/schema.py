"""The ``BENCH_<n>.json`` artifact schema and its (de)serialization.

One artifact captures one full benchmark-suite run: the deterministic
figures each bench returned, the complete
:func:`repro.obs.metric_snapshot` of the observed run, and the
machine-checked paper budgets.  Every section is deterministic — two
runs with the same seeds and ``payload_scale`` agree byte for byte, and
:mod:`repro.perf.compare` fails on *any* drift.  Nothing here is a
timing: speed is measured by ``bench_e2e/`` (docs/benchmarking.md).

The committed baseline lives at the repo root as ``BENCH_<n>.json``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import PerfError
from repro.obs.snapshot import Scalar

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_PATTERN",
    "BudgetCheck",
    "BenchRecord",
    "Artifact",
    "load_artifact",
    "dump_artifact",
    "artifact_paths",
    "next_artifact_path",
]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 2

#: Artifact file names at the repo root: ``BENCH_0001.json`` etc.
ARTIFACT_PATTERN = re.compile(r"^BENCH_(\d{4})\.json$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PerfError(f"invalid artifact: {message}")


def _scalar_map(raw: object, where: str) -> dict[str, Scalar]:
    _require(isinstance(raw, dict), f"{where} must be an object")
    assert isinstance(raw, dict)
    out: dict[str, Scalar] = {}
    for key, value in raw.items():
        _require(isinstance(key, str), f"{where} key {key!r} must be a string")
        _require(
            value is None or isinstance(value, (int, float, str)),
            f"{where}[{key!r}] must be a JSON scalar, got {type(value).__name__}",
        )
        out[str(key)] = value
    return dict(sorted(out.items()))


@dataclass(frozen=True, slots=True)
class BudgetCheck:
    """One machine-checked paper invariant (``value <op> limit``)."""

    name: str     # e.g. "touch.immediate_per_byte"
    claim: str    # the paper claim it encodes, for humans
    value: float
    op: str       # "==", "<=" or ">="
    limit: float
    passed: bool

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "claim": self.claim,
            "value": self.value,
            "op": self.op,
            "limit": self.limit,
            "passed": self.passed,
        }

    @staticmethod
    def evaluate(name: str, claim: str, value: float, op: str,
                 limit: float) -> "BudgetCheck":
        if op == "==":
            passed = value == limit
        elif op == "<=":
            passed = value <= limit
        elif op == ">=":
            passed = value >= limit
        else:
            raise PerfError(f"budget {name!r}: unknown op {op!r}")
        return BudgetCheck(name=name, claim=claim, value=value, op=op,
                           limit=limit, passed=passed)

    @staticmethod
    def from_dict(raw: object) -> "BudgetCheck":
        _require(isinstance(raw, dict), "budget must be an object")
        assert isinstance(raw, dict)
        name = raw.get("name")
        claim = raw.get("claim")
        value = raw.get("value")
        op = raw.get("op")
        limit = raw.get("limit")
        passed = raw.get("passed")
        _require(isinstance(name, str), "budget.name must be a string")
        _require(isinstance(claim, str), "budget.claim must be a string")
        _require(isinstance(value, (int, float)), "budget.value must be a number")
        _require(op in ("==", "<=", ">="), f"budget.op {op!r} unknown")
        _require(isinstance(limit, (int, float)), "budget.limit must be a number")
        _require(isinstance(passed, bool), "budget.passed must be a boolean")
        assert isinstance(name, str) and isinstance(claim, str)
        assert isinstance(value, (int, float)) and isinstance(op, str)
        assert isinstance(limit, (int, float)) and isinstance(passed, bool)
        return BudgetCheck(name=name, claim=claim, value=float(value), op=op,
                           limit=float(limit), passed=passed)


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """Everything collected for one registered bench entry point."""

    name: str                       # registry key, e.g. "claim_touches"
    module: str                     # "bench_claim_touches"
    figures: dict[str, Scalar]      # deterministic bench return values
    metrics: dict[str, Scalar]      # full obs metric snapshot

    @property
    def sim_time_s(self) -> float:
        """Simulated seconds advanced by event loops during the bench."""
        value = self.metrics.get("netsim.loop.sim_time_total", 0.0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    @property
    def events(self) -> int:
        """Event-loop callbacks run during the bench."""
        value = self.metrics.get("netsim.loop.events_processed", 0)
        return int(value) if isinstance(value, (int, float)) else 0

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "module": self.module,
            "sim_time_s": self.sim_time_s,
            "events": self.events,
            "figures": dict(sorted(self.figures.items())),
            "metrics": dict(sorted(self.metrics.items())),
        }

    @staticmethod
    def from_dict(raw: object) -> "BenchRecord":
        _require(isinstance(raw, dict), "bench record must be an object")
        assert isinstance(raw, dict)
        name = raw.get("name")
        module = raw.get("module")
        _require(isinstance(name, str) and name != "", "bench.name must be a string")
        _require(isinstance(module, str), "bench.module must be a string")
        assert isinstance(name, str) and isinstance(module, str)
        return BenchRecord(
            name=name,
            module=module,
            figures=_scalar_map(raw.get("figures"), f"bench[{name}].figures"),
            metrics=_scalar_map(raw.get("metrics"), f"bench[{name}].metrics"),
        )


@dataclass(frozen=True, slots=True)
class Artifact:
    """One full suite run: the content of one ``BENCH_<n>.json``."""

    payload_scale: float
    quick: bool
    benches: tuple[BenchRecord, ...]
    budgets: tuple[BudgetCheck, ...] = ()
    schema_version: int = SCHEMA_VERSION
    info: dict[str, str] = field(default_factory=dict)

    def bench(self, name: str) -> BenchRecord | None:
        for record in self.benches:
            if record.name == name:
                return record
        return None

    @property
    def bench_names(self) -> tuple[str, ...]:
        return tuple(record.name for record in self.benches)

    @property
    def total_sim_time_s(self) -> float:
        return sum(record.sim_time_s for record in self.benches)

    @property
    def total_events(self) -> int:
        return sum(record.events for record in self.benches)

    @property
    def failed_budgets(self) -> tuple[BudgetCheck, ...]:
        return tuple(b for b in self.budgets if not b.passed)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "payload_scale": self.payload_scale,
            "quick": self.quick,
            "info": dict(sorted(self.info.items())),
            "benches": [record.to_dict() for record in
                        sorted(self.benches, key=lambda r: r.name)],
            "budgets": [budget.to_dict() for budget in self.budgets],
        }

    @staticmethod
    def from_dict(raw: object) -> "Artifact":
        _require(isinstance(raw, dict), "artifact root must be an object")
        assert isinstance(raw, dict)
        version = raw.get("schema_version")
        _require(isinstance(version, int), "schema_version must be an integer")
        assert isinstance(version, int)
        _require(
            version == SCHEMA_VERSION,
            f"schema_version {version} unsupported (expected {SCHEMA_VERSION})",
        )
        payload_scale = raw.get("payload_scale")
        quick = raw.get("quick")
        _require(isinstance(payload_scale, (int, float)) and payload_scale > 0,
                 "payload_scale must be a positive number")
        _require(isinstance(quick, bool), "quick must be a boolean")
        assert isinstance(payload_scale, (int, float)) and isinstance(quick, bool)
        benches_raw = raw.get("benches")
        _require(isinstance(benches_raw, list) and benches_raw,
                 "benches must be a non-empty list")
        assert isinstance(benches_raw, list)
        budgets_raw = raw.get("budgets", [])
        _require(isinstance(budgets_raw, list), "budgets must be a list")
        assert isinstance(budgets_raw, list)
        info_raw = raw.get("info", {})
        _require(isinstance(info_raw, dict), "info must be an object")
        assert isinstance(info_raw, dict)
        info = {str(k): str(v) for k, v in info_raw.items()}
        benches = tuple(BenchRecord.from_dict(b) for b in benches_raw)
        names = [record.name for record in benches]
        _require(len(names) == len(set(names)), "duplicate bench names")
        return Artifact(
            payload_scale=float(payload_scale),
            quick=quick,
            benches=benches,
            budgets=tuple(BudgetCheck.from_dict(b) for b in budgets_raw),
            schema_version=version,
            info=info,
        )


def load_artifact(path: Path | str) -> Artifact:
    """Parse and validate one ``BENCH_<n>.json``."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise PerfError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PerfError(f"artifact {path} is not valid JSON: {exc}") from exc
    try:
        return Artifact.from_dict(raw)
    except PerfError as exc:
        raise PerfError(f"{path}: {exc}") from exc


def dump_artifact(artifact: Artifact, path: Path | str) -> None:
    """Write *artifact* as stable, diff-friendly JSON."""
    payload = json.dumps(artifact.to_dict(), indent=1, sort_keys=True)
    Path(path).write_text(payload + "\n")


def artifact_paths(root: Path | str) -> list[tuple[int, Path]]:
    """All ``BENCH_<n>.json`` files under *root*, sorted by index."""
    found: list[tuple[int, Path]] = []
    for entry in Path(root).iterdir():
        match = ARTIFACT_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return sorted(found)


def next_artifact_path(root: Path | str) -> Path:
    """The first unused ``BENCH_<n>.json`` path under *root*."""
    existing = artifact_paths(root)
    index = existing[-1][0] + 1 if existing else 1
    if index > 9999:
        raise PerfError("artifact index space exhausted (BENCH_9999.json)")
    return Path(root) / f"BENCH_{index:04d}.json"
