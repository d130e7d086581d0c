"""protolint — protocol-aware static analysis for the repro codebase.

The chunk design only works because the wire format is rigidly
self-describing: a 44-byte fixed-field header whose widths, flag bits
and sentinels are documented in :mod:`repro.core.codec` but historically
enforced by a single ``assert`` and hand-discipline.  This subsystem
turns those conventions into machine-checked invariants that run before
the test suite does:

- ``wire-width`` — every ``struct`` format string is parseable, uses
  explicit network byte order, agrees with the documented constants in
  :mod:`repro.core.types`, and matches literal slice widths at its call
  sites (Appendix A fixed-field format).
- ``codec-symmetry`` — every public ``encode_*`` has a ``decode_*``
  twin in the same module, and vice versa.
- ``exception-discipline`` — protocol layers raise only the exception
  types defined in :mod:`repro.core.errors` (plus a short builtin
  allowlist), and never use bare/overbroad ``except``.
- ``export-drift`` — every ``__all__`` entry exists and every public
  top-level def/class is either exported or underscore-private.
- ``wire-drift`` — ``struct`` format strings carrying a
  ``# wire-table:`` marker, the codec docstring's offset table, and the
  generated block in ``docs/wire-format.md`` all agree with the single
  header-width table in :mod:`repro.core.wire_table`.

Three passes run over the whole-program import/call graph
(:mod:`repro.analysis.graph`), and one follows scheduled callbacks:

- ``layering`` — imports follow the architecture DAG of
  ``docs/architecture.md``; no layer imports upward.
- ``hot-path-copy`` — no payload copies (``bytes()``, slices,
  ``+``-concat) on the receive paths; the static form of the paper's
  touch-once budget.
- ``ambient-authority`` — no wall clock, sleep, socket, OS entropy or
  module-level ``random`` call in a product package, and no unseeded
  ``random.Random()`` anywhere; time comes from the event loop,
  randomness from :mod:`repro.netsim.rng`.
- ``mutable-sharing`` — scheduled callbacks never mutate module-level
  shared state.

``shard-ownership`` binds the code to its declared owner domains.  The
lifecycle table of :mod:`repro.core.state_table` is bound to the
endpoint by *running* both (``tests/properties/
test_lifecycle_conformance.py``) and explored exhaustively by
:mod:`repro.analysis.modelcheck`; no pass reads it.  Retired passes, and
what holds their property now, are tabled in ``docs/static-analysis.md``.

The runtime half is :mod:`repro.analysis.simsan`: an opt-in event-loop
sanitizer (``REPRO_SIMSAN=1`` / ``pytest --simsan``) that fingerprints
scheduled payload buffers, detects mutation-after-schedule aliasing
with the scheduling backtrace, and maintains a schedule audit digest
for cross-run nondeterminism diffs.

Run the analyzer as ``python -m repro.analysis`` or via the
``protolint`` console script (see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from repro.analysis import simsan
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.core import Finding, ModuleUnit, Pass, run_passes
from repro.analysis.modelcheck import ModelCheckResult, ModelConfig, explore
from repro.analysis.passes import all_passes

__all__ = [
    "Finding",
    "ModuleUnit",
    "Pass",
    "run_passes",
    "all_passes",
    "load_baseline",
    "write_baseline",
    "simsan",
    "ModelConfig",
    "ModelCheckResult",
    "explore",
]
