"""hot-path-copy: no payload copies on the immediate receive path.

Section 3's headline discipline is that each payload byte is touched
**once** on the immediate path: the NIC→application placement.
The figures golden checks that budget dynamically (touches/byte == 1.0,
``tests/figures/``); this pass is the static form.  Inside the receive paths of
``repro.host``, ``repro.transport``, ``repro.wsc`` (the verifier the
receiver feeds every chunk) and ``repro.core.reassemble`` it flags the
three Python idioms that silently duplicate payload bytes:

- ``bytes(x)`` / ``bytearray(x)`` over a payload value;
- slicing a payload value (``payload[a:b]`` copies; wrap the source in
  ``memoryview(...)`` for the zero-copy form);
- ``+``-concatenation with a payload operand.

"Receive path" is computed interprocedurally: the entry points below
plus everything reachable from them through the project call graph,
restricted to the scoped modules.  The paper's contrast strategies
(the reorder and reassemble receivers of Section 3.3, whose extra touch
is the experiment) live in ``repro.paper``, outside the scope.  Writes
(slice *assignment* into a placement buffer) are the single permitted
touch and are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ProjectPass, package_of
from repro.analysis.graph import FunctionInfo, ProjectGraph

__all__ = ["HotPathCopyPass"]

SCOPED_MODULE = "repro.core.reassemble"
SCOPED_PACKAGES = frozenset({"transport", "host", "wsc"})

#: method/function names that start a receive path.
ENTRY_NAMES = frozenset({"receive_packet", "receive_chunk"})

#: names that denote payload bytes in this codebase.
PAYLOAD_NAMES = frozenset({"payload", "data", "frame", "buf", "blob", "body"})

COPY_CTORS = frozenset({"bytes", "bytearray"})


def _in_scope(module: str) -> bool:
    return module == SCOPED_MODULE or package_of(module) in SCOPED_PACKAGES


def _payloadish(expr: ast.expr) -> str | None:
    """The payload-denoting name when *expr* looks like payload bytes."""
    if isinstance(expr, ast.Name) and expr.id in PAYLOAD_NAMES:
        return expr.id
    if isinstance(expr, ast.Attribute) and expr.attr in PAYLOAD_NAMES:
        return expr.attr
    return None


def _store_subscripts(node: ast.AST) -> set[int]:
    """ids of Subscript nodes in store position (placement writes)."""
    out: set[int] = set()
    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        elif isinstance(sub, ast.Delete):
            targets = list(sub.targets)
        for target in targets:
            for inner in ast.walk(target):
                if isinstance(inner, ast.Subscript):
                    out.add(id(inner))
    return out


class HotPathCopyPass(ProjectPass):
    id = "hot-path-copy"
    description = "receive paths never copy payload bytes (touch-once budget)"

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        scoped = frozenset(m for m in graph.units if _in_scope(m))
        if not scoped:
            return
        roots = [
            qual
            for qual, info in graph.functions.items()
            if info.module in scoped
            and (info.name in ENTRY_NAMES or info.module == SCOPED_MODULE)
        ]
        hot = graph.reachable(roots, module_filter=scoped)

        for qual in sorted(hot):
            info = graph.functions[qual]
            yield from self._check_function(info)

    # ------------------------------------------------------------------

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        stores = _store_subscripts(info.node)
        memoryview_names = {
            target.id
            for node in ast.walk(info.node)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "memoryview"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in COPY_CTORS
                    and len(node.args) == 1
                ):
                    name = _payloadish(node.args[0])
                    if name is not None:
                        yield self.finding_at(
                            info.unit.display_path,
                            node.lineno,
                            f"`{node.func.id}({name})` copies payload bytes on "
                            f"the receive path ({info.qualname}): the "
                            "touch-once budget allows only the placement "
                            "write; use a memoryview if a view is needed",
                            symbol=f"copy-ctor:{info.qualname}:{name}",
                        )
            elif isinstance(node, ast.Subscript):
                if id(node) in stores or not isinstance(node.slice, ast.Slice):
                    continue
                value = node.value
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    if value.func.id == "memoryview":
                        continue  # memoryview(x)[a:b] is the zero-copy form
                if isinstance(value, ast.Name) and value.id in memoryview_names:
                    continue
                name = _payloadish(value)
                if name is not None:
                    yield self.finding_at(
                        info.unit.display_path,
                        node.lineno,
                        f"slicing `{name}` copies payload bytes on the receive "
                        f"path ({info.qualname}): slice a memoryview instead "
                        "(`memoryview(x)[a:b]`) to stay inside the touch-once "
                        "budget",
                        symbol=f"copy-slice:{info.qualname}:{name}",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                name = _payloadish(node.left) or _payloadish(node.right)
                if name is not None:
                    yield self.finding_at(
                        info.unit.display_path,
                        node.lineno,
                        f"`+`-concatenation involving `{name}` copies payload "
                        f"bytes on the receive path ({info.qualname}); "
                        "restructure to place each fragment directly",
                        symbol=f"copy-concat:{info.qualname}:{name}",
                    )
