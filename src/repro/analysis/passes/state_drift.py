"""state-drift: connection-state mutations match the lifecycle table.

PR 7's adversarial suite found lifecycle holes (silent overlap
overwrite, trickle-defeatable idle timeout) by *dynamic* search; this
pass closes the static side.  :mod:`repro.core.state_table` declares
the connection FSM — states, events, transitions, and for every
transition the fully-qualified functions allowed to implement it.  The
code binds itself back with ``# state-table: <transition-id>`` markers,
and this pass cross-checks both directions:

- a statement that mutates connection state (``.state =`` stores,
  ``mark_closed``/``evict`` calls, tombstone ``evicted_ids.add``,
  connection-table inserts/pops) inside a function carrying no marker
  is an **undeclared mutation**;
- a marker naming a transition whose declared sites do not include the
  enclosing function is an **undeclared site** (the "transition
  implemented twice" drift) — the finding links the table row;
- a declared site with no marker for its transition is an
  **unimplemented transition** (the site module must be analyzed for
  this to fire, so fixture trees are exempt);
- a mutation that follows an unconditional ``return`` / ``raise`` /
  ``continue`` / ``break`` in its own block is a **dead transition
  site** (a syntactic rule: code after an ``if`` whose branches both
  terminate is not seen);
- the table itself must be sound (every state reachable, no dead ends,
  no unguarded nondeterminism) and the generated block in
  ``docs/architecture.md`` must be current (regenerate with
  ``python -m repro.analysis state-table --write``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.core import CONTAINER_MUTATORS, Finding, ModuleUnit, Pass
from repro.core.state_table import (
    STATE_TABLE,
    StateTable,
    docs_block,
    extract_block,
    row_line,
    table_path,
)

__all__ = ["StateDriftPass"]

#: ``# state-table: evict-idle, evict-closed``
_MARKER_RE = re.compile(r"#\s*state-table:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")

#: Attribute names whose ``.add(...)`` call mutates lifecycle state.
_TOMBSTONE_BASES = frozenset({"evicted_ids", "table"})


def _package(module: str) -> str:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return ""


def _marker_ids(text: str) -> list[str]:
    match = _MARKER_RE.search(text)
    if match is None:
        return []
    return [part.strip() for part in match.group(1).split(",") if part.strip()]


def _functions(unit: ModuleUnit) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(dotted qualname, node)`` for every function, methods included."""
    found: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                found.append((qual, child))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(unit.tree, "")
    return found


def _own_statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements belonging to *node*'s own body, excluding any nested
    function or class bodies (those have their own enclosing scope)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.stmt):
            yield child
        yield from _own_statements(child)


def _own_expressions(node: ast.AST) -> Iterator[ast.AST]:
    """Expression nodes of one statement, excluding nested statements
    (a compound statement owns only its test/iter/items expressions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            continue
        yield child
        yield from _own_expressions(child)


def _is_state_mutation(stmt: ast.stmt) -> bool:
    """True when *stmt* matches one of the lifecycle-mutation shapes."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Attribute) and target.attr == "state":
            return True
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "connections"
        ):
            return True
    for node in _own_expressions(stmt):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        base = node.func.value
        if attr in {"mark_closed", "evict"}:
            return True
        if (
            attr in CONTAINER_MUTATORS
            and isinstance(base, ast.Attribute)
            and base.attr == "connections"
        ):
            return True
        if (
            attr == "add"
            and isinstance(base, ast.Attribute)
            and base.attr in _TOMBSTONE_BASES
        ):
            return True
    return False


def _after_terminator(func: ast.AST) -> set[ast.AST]:
    """Every node that follows an unconditional ``return`` / ``raise`` /
    ``continue`` / ``break`` in its own block — unreachable by syntax alone."""
    dead: set[ast.AST] = set()
    for node in ast.walk(func):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not isinstance(block, list):  # IfExp / Lambda bodies are expressions
                continue
            for index, stmt in enumerate(block):
                if isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break)):
                    for later in block[index + 1 :]:
                        dead.update(ast.walk(later))
                    break
    return dead


def _table_display_path() -> str:
    """The table module's path for related-location output (repo-relative
    when the analyzer runs from the repo root, as the CLI does)."""
    resolved = table_path().resolve()
    try:
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


class StateDriftPass(Pass):
    id = "state-drift"
    description = "connection-state mutations match the declared lifecycle table"

    def __init__(self, table: StateTable = STATE_TABLE) -> None:
        self.table = table
        self._site_modules = set(table.site_modules())

    # ------------------------------------------------------------------
    def _related(self, transition_id: str) -> tuple[str, int]:
        """``(path, line)`` of the declaring table row, or ``("", 0)``."""
        if transition_id not in self.table.by_id or self.table is not STATE_TABLE:
            return "", 0
        return _table_display_path(), row_line(transition_id)

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.module == "repro.core.state_table":
            yield from self._check_table(unit)
        if _package(unit.module) != "transport" and unit.module not in self._site_modules:
            return

        functions = _functions(unit)
        source_lines = unit.source.splitlines()
        # line -> marker ids on that line
        markers: dict[int, list[str]] = {}
        for lineno, text in enumerate(source_lines, start=1):
            ids = _marker_ids(text)
            if ids:
                markers[lineno] = ids

        # marker line -> innermost enclosing function (qualname, node)
        def enclosing(line: int) -> tuple[str, ast.AST] | None:
            best: tuple[str, ast.AST] | None = None
            best_span = None
            for qual, node in functions:
                end = node.end_lineno or node.lineno
                if node.lineno <= line <= end:
                    span = end - node.lineno
                    if best_span is None or span <= best_span:
                        best, best_span = (qual, node), span
            return best

        marked_functions: dict[str, set[str]] = {}
        for line, ids in sorted(markers.items()):
            host = enclosing(line)
            if host is None:
                yield self.finding(
                    unit,
                    line,
                    f"state-table marker {', '.join(ids)} sits outside any "
                    "function; markers must annotate the implementing site",
                    symbol=f"marker-unanchored:{','.join(ids)}",
                )
                continue
            qual, _node = host
            marked_functions.setdefault(qual, set()).update(ids)
            site = f"{unit.module}.{qual}"
            for transition_id in ids:
                transition = self.table.by_id.get(transition_id)
                if transition is None:
                    yield self.finding(
                        unit,
                        line,
                        f"marker names unknown transition {transition_id!r} "
                        "(not declared in repro.core.state_table)",
                        symbol=f"unknown-transition:{transition_id}",
                    )
                    continue
                if site not in transition.sites:
                    rel_path, rel_line = self._related(transition_id)
                    yield self.finding(
                        unit,
                        line,
                        f"{site} implements transition {transition_id!r} but "
                        "is not one of its declared sites "
                        f"({', '.join(transition.sites)})",
                        symbol=f"undeclared-site:{transition_id}:{qual}",
                        related_path=rel_path,
                        related_line=rel_line,
                    )

        # Declared coverage: every (transition, site) in this module must
        # carry a marker.  Anchored here so fixture trees (different
        # module names) never satisfy — or trip — real-site coverage.
        by_qual = dict(functions)
        for transition in self.table.transitions:
            for site in transition.sites:
                module, _, qual = site.rpartition(".")
                cls_module, _, cls = module.rpartition(".")
                if cls and cls[0].isupper():
                    module, qual = cls_module, f"{cls}.{qual}"
                if module != unit.module:
                    continue
                node = by_qual.get(qual)
                rel_path, rel_line = self._related(transition.transition_id)
                if node is None:
                    yield self.finding(
                        unit,
                        1,
                        f"declared site {site} for transition "
                        f"{transition.transition_id!r} does not exist",
                        symbol=f"missing-site:{transition.transition_id}:{qual}",
                        related_path=rel_path,
                        related_line=rel_line,
                    )
                elif transition.transition_id not in marked_functions.get(qual, set()):
                    yield self.finding(
                        unit,
                        node.lineno,
                        f"declared site {site} has no `# state-table: "
                        f"{transition.transition_id}` marker — the transition "
                        "is unimplemented here",
                        symbol=f"unimplemented:{transition.transition_id}:{qual}",
                        related_path=rel_path,
                        related_line=rel_line,
                    )

        # Undeclared mutations + dead sites.
        for qual, node in functions:
            has_marker = qual in marked_functions
            mutations = [
                stmt for stmt in _own_statements(node) if _is_state_mutation(stmt)
            ]
            if not mutations:
                continue
            if not has_marker:
                for stmt in mutations:
                    yield self.finding(
                        unit,
                        stmt.lineno,
                        f"{unit.module}.{qual} mutates connection state with "
                        "no `# state-table:` marker — declare the transition "
                        "in repro.core.state_table or drop the mutation",
                        symbol=f"undeclared-mutation:{qual}:{stmt.lineno}",
                    )
                continue
            dead = _after_terminator(node)
            for stmt in mutations:
                if stmt in dead:
                    yield self.finding(
                        unit,
                        stmt.lineno,
                        f"{unit.module}.{qual} has an unreachable state "
                        "mutation — the declared transition site is dead code",
                        symbol=f"dead-site:{qual}:{stmt.lineno}",
                    )

        # Module-level mutations (outside any function or class body).
        for stmt in _own_statements(unit.tree):
            if _is_state_mutation(stmt):
                yield self.finding(
                    unit,
                    stmt.lineno,
                    "module-level statement mutates connection state outside "
                    "any declared transition site",
                    symbol=f"module-mutation:{stmt.lineno}",
                )

    # ------------------------------------------------------------------
    def _check_table(self, unit: ModuleUnit) -> Iterator[Finding]:
        for problem in self.table.validate():
            yield self.finding(
                unit,
                1,
                f"declared lifecycle table is unsound: {problem}",
                symbol=f"fsm-unsound:{problem}",
            )
        # Resolve the repo root from the analyzed file's real location;
        # fixture copies of the table live elsewhere and are skipped.
        try:
            root = unit.path.resolve().parents[3]
        except IndexError:
            return
        docs = root / "docs" / "architecture.md"
        if not (root / "pyproject.toml").exists() or not docs.exists():
            return
        if self.table is not STATE_TABLE:
            return
        have = extract_block(docs.read_text(encoding="utf-8"))
        want = docs_block()
        if have is None:
            yield self.finding(
                unit,
                1,
                "docs/architecture.md has no generated state-machine block "
                "(run `python -m repro.analysis state-table --write`)",
                symbol="docs-block-missing",
            )
        elif have != want:
            yield self.finding(
                unit,
                1,
                "docs/architecture.md generated state-machine block is stale "
                "(run `python -m repro.analysis state-table --write`)",
                symbol="docs-block-stale",
            )
