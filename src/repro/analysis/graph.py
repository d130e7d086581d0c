"""Whole-program import/call graph for the interprocedural passes.

:class:`ProjectGraph` parses nothing itself — it is built from the
:class:`~repro.analysis.core.ModuleUnit` list its caller collected —
and derives three structures:

- the **import graph**: which module imports which, with line numbers,
  including the implicit parent-package edges Python creates
  (``import repro.netsim.link`` also imports ``repro.netsim``);
- per-module **alias tables**: what each local name refers to
  (``from repro.netsim.link import Link as L`` binds ``L`` →
  ``repro.netsim.link.Link``), so passes can resolve dotted call
  targets without executing anything;
- a **function registry + conservative call resolution**: every
  module-level function and class method gets a qualified name;
  ``self.f()`` resolves within the class, ``name()`` through the alias
  table, and unknown attribute calls fall back to *every* function of
  that bare name in the analyzed tree (over-approximation — the right
  bias for a linter's reachability questions).

The graph is deliberately syntactic: no imports are executed, so it is
safe to run over the deliberately-broken violation fixtures.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.core import ModuleUnit, dotted_name

__all__ = ["ImportEdge", "FunctionInfo", "ProjectGraph"]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, as an edge in the module graph."""

    importer: str  #: dotted module doing the importing
    target: str  #: dotted module (or ``module.symbol``) imported
    line: int  #: 1-based line of the import statement
    #: True when the edge is the implicit parent-package import Python
    #: performs, not a statement the author wrote.
    implicit: bool = False


@dataclass
class FunctionInfo:
    """A module-level function or a class method."""

    qualname: str  #: ``repro.pkg.mod.func`` or ``repro.pkg.mod.Cls.meth``
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    unit: ModuleUnit


def _resolve_relative(
    module: str, level: int, target: str | None, *, is_package: bool = False
) -> str | None:
    """Absolute module for a ``from ...x import y`` statement.

    ``level`` counts leading dots.  One dot means "my package": for a
    plain module that is the name minus its last segment, but for a
    package ``__init__`` the module name *is* the package, so packages
    strip one segment fewer (CPython's ``importlib._bootstrap._resolve_name``
    does the same via ``package`` vs ``__name__``).  A level that climbs
    past the root resolves to ``None`` — the caller drops the edge
    rather than inventing one.
    """
    if level == 0:
        return target
    base = module.split(".")
    strip = level - 1 if is_package else level
    if len(base) < strip or (strip == len(base) and not target):
        return None
    prefix = base[: len(base) - strip]
    if target:
        prefix.append(target)
    return ".".join(prefix) if prefix else None


class ProjectGraph:
    """Import + call graph over a set of analyzed modules."""

    def __init__(self, units: Iterable[ModuleUnit]) -> None:
        self.units: dict[str, ModuleUnit] = {}
        self.import_edges: list[ImportEdge] = []
        #: per-module: local name -> fully qualified target
        self.aliases: dict[str, dict[str, str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: bare function name -> qualnames (for conservative resolution)
        self.by_name: dict[str, list[str]] = {}
        #: ``from pkg import name`` edges where *name* may itself be a
        #: module — resolvable only once every unit has been added.
        self._deferred_edges: list[tuple[str, str, int]] = []
        for unit in units:
            self._add_unit(unit)
        known = {(edge.importer, edge.target) for edge in self.import_edges}
        for importer, candidate, line in self._deferred_edges:
            if candidate in self.units and (importer, candidate) not in known:
                known.add((importer, candidate))
                self._add_edge(importer, candidate, line)

    # ------------------------------------------------------------------
    # construction

    def _add_unit(self, unit: ModuleUnit) -> None:
        module = unit.module
        self.units[module] = unit
        alias_table = self.aliases.setdefault(module, {})

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._add_edge(module, alias.name, node.lineno)
                    if alias.asname:
                        # ``import a.b.c as x`` binds x -> a.b.c
                        alias_table[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds only the root name a
                        root = alias.name.split(".")[0]
                        alias_table.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(
                    module,
                    node.level,
                    node.module,
                    is_package=unit.path.name == "__init__.py",
                )
                if target is None:
                    continue
                self._add_edge(module, target, node.lineno)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    alias_table[local] = f"{target}.{alias.name}"
                    # ``from repro.netsim import events`` imports the
                    # *module* repro.netsim.events; whether the name is
                    # a module is only known once all units are loaded.
                    self._deferred_edges.append(
                        (module, f"{target}.{alias.name}", node.lineno)
                    )

        for stmt in unit.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(unit, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._register_function(unit, sub, cls=stmt.name)

    def _add_edge(self, importer: str, target: str, line: int) -> None:
        self.import_edges.append(ImportEdge(importer, target, line))
        # Implicit parent-package imports: repro.a.b pulls in repro.a.
        parts = target.split(".")
        for depth in range(1, len(parts)):
            parent = ".".join(parts[:depth])
            self.import_edges.append(ImportEdge(importer, parent, line, implicit=True))

    def _register_function(
        self,
        unit: ModuleUnit,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> None:
        qual = f"{unit.module}.{cls}.{node.name}" if cls else f"{unit.module}.{node.name}"
        info = FunctionInfo(
            qualname=qual, module=unit.module, name=node.name, cls=cls, node=node, unit=unit
        )
        self.functions[qual] = info
        self.by_name.setdefault(node.name, []).append(qual)

    # ------------------------------------------------------------------
    # symbol / call resolution

    def resolve_name(self, module: str, name: str) -> str | None:
        """Qualified target for a bare *name* used in *module*.

        Local module-level definitions win over imported aliases
        (Python shadowing semantics at module scope).
        """
        if f"{module}.{name}" in self.functions:
            return f"{module}.{name}"
        return self.aliases.get(module, {}).get(name)

    def resolve_dotted(self, module: str, dotted: str) -> str | None:
        """Qualified target for a dotted expression like ``pkg.mod.fn``.

        Resolves the *first* segment through the module's alias table
        and appends the rest: with ``import repro.netsim as ns``,
        ``ns.link.Link`` → ``repro.netsim.link.Link``.
        """
        head, _, rest = dotted.partition(".")
        base = self.resolve_name(module, head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    def resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> tuple[set[str], bool]:
        """Possible callee qualnames for *call* inside *info*.

        Returns ``(candidates, exact)``: *exact* is False when the set
        came from the bare-name fallback (conservative
        over-approximation), True when the alias/class resolution
        pinned the target.
        """
        func = call.func
        if isinstance(func, ast.Name):
            target = self.resolve_name(info.module, func.id)
            if target is not None and target in self.functions:
                return {target}, True
            # A class constructor: Cls() calls Cls.__init__ and makes the
            # class's methods reachable in spirit; map to its methods'
            # qualname prefix when any exist.
            if target is not None:
                methods = {
                    q for q in self.functions if q.startswith(target + ".")
                }
                if methods:
                    return methods, True
            return set(), True
        if isinstance(func, ast.Attribute):
            dotted = dotted_name(func)
            if dotted is not None:
                if dotted.startswith("self.") and info.cls is not None:
                    qual = f"{info.module}.{info.cls}.{func.attr}"
                    if qual in self.functions:
                        return {qual}, True
                resolved = self.resolve_dotted(info.module, dotted)
                if resolved is not None and resolved in self.functions:
                    return {resolved}, True
            # Conservative fallback: every function of that bare name.
            return set(self.by_name.get(func.attr, [])), False
        return set(), False

    def calls_in(self, info: FunctionInfo) -> Iterator[ast.Call]:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                yield node

    def reachable(
        self,
        roots: Iterable[str],
        *,
        module_filter: frozenset[str] | None = None,
    ) -> set[str]:
        """Function qualnames reachable from *roots* via the call graph.

        *module_filter*, when given, restricts traversal to functions
        whose module is in the set.
        """
        seen: set[str] = set()
        queue: deque[str] = deque(q for q in roots if q in self.functions)
        while queue:
            qual = queue.popleft()
            if qual in seen:
                continue
            info = self.functions[qual]
            if module_filter is not None and info.module not in module_filter:
                continue
            seen.add(qual)
            for call in self.calls_in(info):
                candidates, _exact = self.resolve_call(info, call)
                for cand in candidates:
                    if cand not in seen:
                        queue.append(cand)
        return seen
