"""mutable-sharing: scheduled callbacks must not mutate shared state.

A callback handed to ``EventLoop.at`` / ``EventLoop.schedule`` runs at
an arbitrary later point in simulated time.  If it closes over
module-level mutable state and mutates it, two runs of the same seeded
scenario can diverge on anything that perturbs scheduling order — the
aliasing analogue of the OS/NIDS reassembly divergence (overlapping
fragments interpreted differently by different observers).  Instance
state reached through ``self`` is fine: it belongs to the object that
scheduled the work.  Local closure state (a ``state = {...}`` dict
shared between an echo and a timeout callback) is also fine — it is
per-call, not shared across the module.

Detection is syntactic: at every ``<obj>.at(time, cb)`` /
``<obj>.schedule(delay, cb)`` call site, the callback expression is
resolved (lambda body; a ``Name`` referring to a ``def`` in the same
module/function; ``self.method`` is skipped) and its body is scanned
for mutations of *module-level* names: direct assignment (via
``global``), subscript/attribute stores on a module-level name, and
mutating container-method calls (``append``/``update``/...).

The runtime half of this invariant is ``repro.analysis.simsan``, which
fingerprints scheduled payload buffers and detects
mutation-after-schedule aliasing dynamically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import CONTAINER_MUTATORS, Finding, ModuleUnit, Pass

__all__ = ["MutableSharingPass"]

SCHEDULE_ATTRS = frozenset({"at", "schedule"})


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _local_defs(tree: ast.Module) -> dict[int, dict[str, ast.FunctionDef]]:
    """For every function node id: the ``def``s declared directly in it,
    plus module-level defs keyed under the module node's id."""
    table: dict[int, dict[str, ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            table[id(node)] = {
                stmt.name: stmt for stmt in body if isinstance(stmt, ast.FunctionDef)
            }
    return table


class MutableSharingPass(Pass):
    id = "mutable-sharing"
    description = "scheduled callbacks never mutate module-level mutable state"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        module_names = _module_level_names(unit.tree)
        if not module_names:
            return
        defs_by_scope = _local_defs(unit.tree)

        # Walk with scope tracking so a Name callback resolves to the
        # nearest enclosing def first, then module level.
        def visit(node: ast.AST, scope_chain: list[int]) -> Iterator[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope_chain = scope_chain + [id(node)]
            for child in ast.iter_child_nodes(node):
                yield from visit(child, scope_chain)
            if not isinstance(node, ast.Call):
                return
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in SCHEDULE_ATTRS):
                return
            if len(node.args) < 2:
                return
            callback = node.args[-1]
            body = self._callback_body(callback, scope_chain, defs_by_scope)
            if body is None:
                return
            yield from self._check_body(unit, node, body, module_names)

        yield from visit(unit.tree, [id(unit.tree)])

    # ------------------------------------------------------------------

    def _callback_body(
        self,
        callback: ast.expr,
        scope_chain: list[int],
        defs_by_scope: dict[int, dict[str, ast.FunctionDef]],
    ) -> ast.AST | None:
        if isinstance(callback, ast.Lambda):
            return callback.body
        if isinstance(callback, ast.Name):
            for scope_id in reversed(scope_chain):
                found = defs_by_scope.get(scope_id, {}).get(callback.id)
                if found is not None:
                    return found
        # self.method / functools.partial(...): instance state, skip.
        return None

    def _check_body(
        self,
        unit: ModuleUnit,
        schedule_call: ast.Call,
        body: ast.AST,
        module_names: set[str],
    ) -> Iterator[Finding]:
        declared_global: set[str] = {
            name
            for node in ast.walk(body)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        for node in ast.walk(body):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    yield from self._flag_store(
                        unit, target, module_names, declared_global
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                if (
                    node.func.attr in CONTAINER_MUTATORS
                    and isinstance(base, ast.Name)
                    and base.id in module_names
                ):
                    yield self.finding(
                        unit,
                        node,
                        f"scheduled callback mutates module-level `{base.id}` "
                        f"via .{node.func.attr}(): shared mutable state makes "
                        "event ordering observable; keep the state on the "
                        "scheduling object or in a per-call closure",
                        symbol=f"shared-mutation:{base.id}.{node.func.attr}",
                    )

    def _flag_store(
        self,
        unit: ModuleUnit,
        target: ast.expr,
        module_names: set[str],
        declared_global: set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Name):
            if target.id in declared_global and target.id in module_names:
                yield self.finding(
                    unit,
                    target,
                    f"scheduled callback rebinds module global `{target.id}`: "
                    "shared mutable state makes event ordering observable",
                    symbol=f"shared-rebind:{target.id}",
                )
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            if isinstance(base, ast.Name) and base.id in module_names:
                kind = "item" if isinstance(target, ast.Subscript) else "attribute"
                yield self.finding(
                    unit,
                    target,
                    f"scheduled callback stores an {kind} on module-level "
                    f"`{base.id}`: shared mutable state makes event ordering "
                    "observable; keep it on the scheduling object",
                    symbol=f"shared-store:{base.id}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._flag_store(
                    unit, element, module_names, declared_global
                )
