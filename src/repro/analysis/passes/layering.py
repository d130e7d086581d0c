"""layering: enforce the architecture DAG (docs/architecture.md).

The data path stacks strictly::

    core ─► {wsc, netsim, crypto} ─► host ─► transport ─► {app, baselines}

Lower layers must never import upward — a ``core`` module that peeks at
``transport`` state is the in-repo analogue of a network layer reading
across framing levels, which the self-describing-chunk design exists to
forbid.  Three meta layers sit beside the stack:

- ``obs`` may be imported from anywhere (null-sink instrumentation) but
  itself depends only on ``core``;
- ``analysis`` and ``perf`` may import product layers, but no product
  layer may import them — tooling observes the system, never the other
  way around.

The pass checks every import edge in the project graph (including
imports nested inside functions — laziness does not change the
dependency) against the allowed-imports table below.  The table is the
machine-readable mirror of the DAG in ``docs/architecture.md``; change
them together.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import PRODUCT_PACKAGES, Finding, ProjectPass, package_of
from repro.analysis.graph import ProjectGraph

__all__ = ["LayeringPass", "ALLOWED_IMPORTS", "META_LAYERS"]

_PRODUCT_STACK = frozenset(PRODUCT_PACKAGES) - {"app", "baselines"}

#: package -> packages it may import (besides itself and meta layers).
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "core": frozenset(),
    "crypto": frozenset({"core"}),
    "wsc": frozenset({"core", "crypto"}),
    "netsim": frozenset({"core"}),
    "host": frozenset({"core", "crypto", "wsc"}),
    "transport": frozenset({"core", "crypto", "wsc", "netsim", "host"}),
    "app": _PRODUCT_STACK,
    "baselines": _PRODUCT_STACK,
    "obs": frozenset({"core"}),
    "analysis": _PRODUCT_STACK | frozenset({"obs"}),
    "perf": _PRODUCT_STACK | frozenset({"obs"}),
}

#: importable from every layer (null-sink instrumentation handles).
META_LAYERS = frozenset({"obs"})


class LayeringPass(ProjectPass):
    id = "layering"
    description = "imports follow the architecture DAG; no upward imports"

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for edge in graph.import_edges:
            if edge.implicit:
                continue
            src_pkg = package_of(edge.importer)
            dst_pkg = package_of(edge.target)
            if not edge.target.startswith("repro"):
                continue  # stdlib / third-party: out of scope
            if not edge.importer.startswith("repro"):
                continue
            if src_pkg == dst_pkg or src_pkg == "" or dst_pkg == "":
                continue  # intra-package, or the root package façade
            if dst_pkg in META_LAYERS:
                continue
            allowed = ALLOWED_IMPORTS.get(src_pkg)
            if allowed is None:
                yield self.finding_at(
                    graph.units[edge.importer].display_path,
                    edge.line,
                    f"package `{src_pkg}` is not in the architecture DAG "
                    "(docs/architecture.md): add it to the layering table "
                    "deliberately or move the module",
                    symbol=f"unknown-package:{src_pkg}",
                )
                continue
            if dst_pkg not in allowed:
                yield self.finding_at(
                    graph.units[edge.importer].display_path,
                    edge.line,
                    f"layering violation: `repro.{src_pkg}` may not import "
                    f"`repro.{dst_pkg}` (allowed: "
                    f"{', '.join(sorted(allowed | META_LAYERS)) or 'nothing'}); "
                    "the architecture DAG in docs/architecture.md only flows "
                    "upward",
                    symbol=f"upward-import:{edge.importer}->{edge.target}",
                )
