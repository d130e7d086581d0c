"""ambient-authority: clock, entropy and the OS reach the simulation
only through its seams.

Every figure in ``benchmarks/`` and every count the end-to-end gate
pins is meaningful because a seeded run is *exactly* repeatable, and
the simulated twin stays a twin of a real deployment only while the
protocol code gets its time from the event loop and its randomness from
the seeded substreams of :mod:`repro.netsim.rng`.  One flat question
covers it — does this call take authority from the process instead of
from an injected seam? — asked of every call in the tree; no call graph
is walked, because the answer is a property of the call itself:

- in the product packages (:data:`~repro.analysis.core.PRODUCT_PACKAGES`;
  the adapter module :mod:`repro.netsim.rng` *is* the seam and is
  exempt) a call to the wall clock, ``sleep``, sockets, ``select``,
  ``ssl``, ``subprocess``, OS entropy, or a module-level function of
  :mod:`random` (they share one global, unseeded stream) is a finding;
- everywhere analysed — tooling, ``benchmarks/`` and ``examples/``
  included — so is the no-argument ``random.Random()``, which seeds
  itself from the OS: whoever builds one is about to hand it to the
  simulator, however many helpers later.

Allowed: ``time.perf_counter`` / ``perf_counter_ns`` (the wall cost of
host processing is a measurement, never simulated behaviour), a seeded
``random.Random(seed)``, and ``random.Random`` as an annotation.  Call
targets resolve through the project graph's alias tables (``from time
import time as now`` is still ``time.time``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    PRODUCT_PACKAGES,
    Finding,
    ProjectPass,
    dotted_name,
    package_of,
)
from repro.analysis.graph import ProjectGraph

__all__ = ["AmbientAuthorityPass", "ADAPTER_MODULES"]

#: The blessed clock/entropy seams: only these modules may wrap the OS.
ADAPTER_MODULES = frozenset({"repro.netsim.rng"})

#: ``random.`` here is the module's own functions (one global, unseeded
#: stream); ``random.Random`` itself is judged by its arguments below.
BANNED_PREFIXES = ("socket.", "select.", "ssl.", "subprocess.", "random.")

BANNED_EXACT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "os.system",
    }
)

UNSEEDED = "random.Random()"


def _banned(target: str, call: ast.Call, product: bool) -> str | None:
    """What *call* (resolved to *target*) takes from the process, if anything."""
    if target == "random.Random":
        return None if call.args or call.keywords else UNSEEDED
    if product and (target in BANNED_EXACT or target.startswith(BANNED_PREFIXES)):
        return target
    return None


class AmbientAuthorityPass(ProjectPass):
    id = "ambient-authority"
    description = "no wall clock / OS entropy / sockets / unseeded RNG outside the seams"

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for module, unit in graph.units.items():
            if module in ADAPTER_MODULES:
                continue
            product = module.startswith("repro.") and package_of(module) in PRODUCT_PACKAGES
            for node in ast.walk(unit.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                target = graph.resolve_dotted(module, dotted) if dotted else None
                banned = _banned(target, node, product) if target else None
                if banned is None:
                    continue
                if banned == UNSEEDED:
                    message = (
                        "`random.Random()` with no seed draws from OS entropy: "
                        "every stream that can reach the simulator must be "
                        "netsim.rng.default_rng(), a substream, or explicitly seeded"
                    )
                else:
                    message = (
                        f"`{banned}` takes ambient authority from the process: "
                        "simulated time comes from the event loop, randomness "
                        "from repro.netsim.rng substreams, and the OS is touched "
                        "only in a designated adapter module"
                    )
                yield self.finding_at(
                    unit.display_path, node.lineno, message, symbol=f"ambient:{banned}"
                )
