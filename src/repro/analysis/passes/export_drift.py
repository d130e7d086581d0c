"""export-drift: ``__all__`` is the API surface; it must be real.

``__all__`` entries that name nothing break ``import *`` and lie to
readers about the module's surface; public defs missing from
``__all__`` drift into de-facto API without review.  Rule: every
``__all__`` name is bound in the module, and every public top-level
def/class is either listed in ``__all__`` or underscore-private.
Modules with public defs must declare ``__all__`` at all.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleUnit, Pass

__all__ = ["ExportDriftPass"]


def _bound_names(body: list[ast.stmt], into: set[str], star: list[bool]) -> None:
    """Collect names bound by *body* (recursing into top-level if/try/for)."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                into.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    star[0] = True
                else:
                    into.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            into.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        into.add(sub.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            into.add(node.target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            into.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    into.add(sub.id)
            _bound_names(node.body, into, star)
            _bound_names(node.orelse, into, star)
        elif isinstance(node, ast.If):
            _bound_names(node.body, into, star)
            _bound_names(node.orelse, into, star)
        elif isinstance(node, ast.Try):
            _bound_names(node.body, into, star)
            for handler in node.handlers:
                _bound_names(handler.body, into, star)
            _bound_names(node.orelse, into, star)
            _bound_names(node.finalbody, into, star)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            _bound_names(node.body, into, star)


class ExportDriftPass(Pass):
    id = "export-drift"
    description = "__all__ names exist; public defs are exported or private"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        all_node: ast.Assign | None = None
        all_names: list[str] | None = None
        verifiable = True
        for node in unit.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node, ast.AugAssign) or all_names is not None:
                        verifiable = False  # built dynamically / reassigned
                        continue
                    assert isinstance(node, ast.Assign)
                    all_node = node
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        verifiable = False
                        continue
                    if isinstance(value, (list, tuple)) and all(
                        isinstance(item, str) for item in value
                    ):
                        all_names = list(value)
                    else:
                        verifiable = False

        if not verifiable:
            yield self.finding(
                unit,
                all_node or 1,
                "__all__ is built dynamically and cannot be verified; use a "
                "literal list of strings",
                symbol="__all__:dynamic",
            )
            return

        bound: set[str] = set()
        star = [False]
        _bound_names(unit.tree.body, bound, star)

        public_defs = [
            node
            for node in unit.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]

        if all_names is None:
            # Only importable library modules owe a declared surface.
            # Scripts outside the package tree (benchmarks, examples —
            # their dotted name has no package prefix) are entry points:
            # nothing imports them, so there is no API to declare.  Their
            # phantom-export and literal-__all__ rules above still apply.
            if "." not in unit.module:
                return
            if public_defs:
                names = ", ".join(node.name for node in public_defs)
                yield self.finding(
                    unit,
                    public_defs[0],
                    f"module defines public names ({names}) but no __all__: the "
                    "API surface must be declared",
                    symbol="__all__:missing",
                )
            return

        if not star[0]:
            for name in all_names:
                if name not in bound:
                    yield self.finding(
                        unit,
                        all_node or 1,
                        f"__all__ lists {name!r} but the module never binds it "
                        "(phantom export breaks `import *`)",
                        symbol=f"phantom:{name}",
                    )

        exported = set(all_names)
        for node in public_defs:
            if node.name not in exported:
                yield self.finding(
                    unit,
                    node,
                    f"public {type(node).__name__.replace('Def', '').lower()} "
                    f"{node.name} is neither in __all__ nor underscore-private",
                    symbol=f"unexported:{node.name}",
                )
