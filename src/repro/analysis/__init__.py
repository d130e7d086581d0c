"""protolint — protocol-aware static analysis for the repro codebase.

The chunk design only works because the wire format is rigidly
self-describing: a 44-byte fixed-field header whose widths, flag bits
and sentinels are tabled in :mod:`repro.core.wire_table` but historically
enforced by a single ``assert`` and hand-discipline.  This subsystem
turns those conventions into machine-checked invariants that tier-1
tests enforce:

- ``wire-width`` — every literal ``struct`` format string names
  network byte order (the one wire property a same-host round trip
  cannot see).
- ``codec-symmetry`` — every public ``encode_*`` has a ``decode_*``
  twin in the same module, and vice versa.
- ``exception-discipline`` — protocol layers raise only the exception
  types defined in :mod:`repro.core.errors` (plus a short builtin
  allowlist), and never use bare/overbroad ``except``.
- ``export-drift`` — every ``__all__`` entry exists and every public
  top-level def/class is either exported or underscore-private.

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

Two tables are bound to the code by *running* both, not by a pass: the
wire layout of :mod:`repro.core.wire_table` (``tests/core/
test_wire_layout.py`` infers every field from live encodings) and the
lifecycle table of :mod:`repro.analysis.state_table`, which
:mod:`repro.analysis.modelcheck` runs against a live endpoint in every
reachable state of a bounded configuration (``tests/analysis/
test_modelcheck.py``; ``tests/properties/test_lifecycle_conformance.py``
takes the same checked steps on random walks).  Retired passes, and
what holds their property now, are tabled in ``docs/static-analysis.md``.

The runtime half is :mod:`repro.analysis.simsan`: an opt-in event-loop
sanitizer (``REPRO_SIMSAN=1``) that fingerprints
scheduled payload buffers, detects mutation-after-schedule aliasing
with the scheduling backtrace, maintains a schedule audit digest for
cross-run nondeterminism diffs, and — for a watched
:class:`~repro.transport.shard.ShardedEndpoint` — fails when an event
one shard runs changes another shard's state.

Neither the analyzer nor the lifecycle checker has a command line:
``tests/analysis/test_tree_is_clean.py`` runs each pass over
``src/repro``, ``benchmarks`` and ``examples`` as one tier-1 test id
(``test_tree_is_clean[<pass-id>]``), and any finding fails it;
``tests/analysis/test_modelcheck.py`` runs the checker.
"""

from __future__ import annotations

from repro.analysis import simsan
from repro.analysis.core import Finding, ModuleUnit, Pass, run_passes
from repro.analysis.modelcheck import ModelCheckResult, ModelConfig, explore
from repro.analysis.passes import all_passes

__all__ = [
    "Finding",
    "ModuleUnit",
    "Pass",
    "run_passes",
    "all_passes",
    "simsan",
    "ModelConfig",
    "ModelCheckResult",
    "explore",
]
