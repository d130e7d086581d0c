"""Framework for protolint: findings, analysed modules, pass protocol.

A :class:`Pass` examines one :class:`ModuleUnit` (a parsed source file)
at a time and yields :class:`Finding` objects.  The runner applies
inline suppressions (``# protolint: ignore[<pass-id>]``), the only way
to silence a finding.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.errors import AnalysisError

if TYPE_CHECKING:
    from repro.analysis.graph import ProjectGraph

__all__ = [
    "Finding",
    "ModuleUnit",
    "Pass",
    "ProjectPass",
    "run_passes",
    "module_name_for_path",
    "dotted_name",
    "package_of",
    "CONTAINER_MUTATORS",
    "PRODUCT_PACKAGES",
]

#: Inline suppression marker.  ``# protolint: ignore`` silences every
#: pass on that line; ``# protolint: ignore[wire-width,layering]``
#: silences only the named passes.
_SUPPRESS_RE = re.compile(r"#\s*protolint:\s*ignore(?:\[([a-zA-Z0-9_,\- ]+)\])?")

#: Container method names that mutate their receiver (read by
#: mutable-sharing).
CONTAINER_MUTATORS: frozenset[str] = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: The product packages, in architecture-DAG order (docs/architecture.md):
#: the transfer path, then the figure models in ``paper``; ``obs`` /
#: ``analysis`` are tooling.  Each pass names the subset it means:
#: layering the transfer stack below ``app``, hot-path-copy
#: ``transport`` + ``host`` + ``wsc``, ambient-authority all of it.
PRODUCT_PACKAGES: tuple[str, ...] = (
    "core",
    "wsc",
    "netsim",
    "host",
    "transport",
    "app",
    "paper",
)


@dataclass(frozen=True)
class Finding:
    """One analyzer finding.

    Attributes:
        pass_id: id of the pass that produced it (e.g. ``wire-width``).
        path: file path as given to the runner (posix, repo-relative
            when the units were collected that way).
        line: 1-based source line.
        message: human-readable description.
        symbol: stable key naming *what* is wrong (a variable, function
            or format string).
    """

    pass_id: str
    path: str
    line: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.pass_id} {self.message}"


def module_name_for_path(path: Path) -> str:
    """Dotted module name for *path*, anchored at the last ``repro`` dir.

    ``src/repro/netsim/link.py`` → ``repro.netsim.link``; a file outside
    any ``repro`` tree falls back to its stem.  Fixture trees used by the
    analyzer's own tests mimic the ``.../repro/<pkg>/<mod>.py`` layout so
    package-scoped passes (ambient-authority, exception-discipline) apply.
    """
    parts = list(path.parts)
    stem = path.stem
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[anchor:-1]]
        if stem != "__init__":
            dotted.append(stem)
        return ".".join(dotted)
    return stem


@dataclass
class ModuleUnit:
    """A parsed source file plus the metadata passes need."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    display_path: str = ""
    _suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.display_path:
            self.display_path = self.path.as_posix()
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            ids = match.group(1)
            if ids is None:
                self._suppressions[lineno] = None  # suppress every pass
            else:
                self._suppressions[lineno] = frozenset(
                    part.strip() for part in ids.split(",") if part.strip()
                )

    @classmethod
    def from_path(cls, path: Path, display_path: str | None = None) -> "ModuleUnit":
        """Parse *path*; a repo-relative *display_path* also names the module,
        so the directory the tree sits in cannot shift the ``repro`` anchor."""
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(f"{path}: cannot parse: {exc}") from exc
        return cls(
            path=path,
            module=module_name_for_path(Path(display_path) if display_path else path),
            source=source,
            tree=tree,
            display_path=display_path or path.as_posix(),
        )

    def suppressed_ids(self) -> Iterator[tuple[int, str]]:
        """``(line, pass-id)`` for every id an inline ignore names."""
        for line, ids in sorted(self._suppressions.items()):
            for pass_id in sorted(ids or ()):
                yield line, pass_id

    def is_suppressed(self, line: int, pass_id: str) -> bool:
        """True if *line* carries an ignore comment covering *pass_id*."""
        if line not in self._suppressions:
            return False
        ids = self._suppressions[line]
        return ids is None or pass_id in ids


class Pass:
    """Base class for one analysis pass.

    Subclasses set :attr:`id` / :attr:`description` and implement
    :meth:`check`, yielding findings for a single module.
    """

    id: str = ""
    description: str = ""

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        unit: ModuleUnit,
        node: ast.AST | int,
        message: str,
        *,
        symbol: str = "",
    ) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            pass_id=self.id,
            path=unit.display_path,
            line=line,
            message=message,
            symbol=symbol,
        )


class ProjectPass(Pass):
    """A pass that analyzes the whole module set at once.

    Project passes (layering, hot-path-copy, ambient-authority) need the
    import/call graph of every collected module; the runner builds one
    :class:`~repro.analysis.graph.ProjectGraph` and hands it to
    :meth:`check_project`.  :meth:`check` is a no-op so a
    ``ProjectPass`` can sit in the same pass list as per-module passes.
    """

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        return iter(())

    def check_project(self, graph: "ProjectGraph") -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(
        self,
        path: str,
        line: int,
        message: str,
        *,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            pass_id=self.id,
            path=path,
            line=line,
            message=message,
            symbol=symbol,
        )


def run_passes(units: Iterable[ModuleUnit], passes: Iterable[Pass]) -> list[Finding]:
    """Run every pass over every unit, dropping suppressed findings.

    Per-module passes see one unit at a time; :class:`ProjectPass`
    instances run once against a :class:`ProjectGraph` built from the
    full unit list — the graph and every module AST are built exactly
    once per call and shared across all passes.  Inline suppressions
    apply to both kinds.  Findings come back sorted by
    ``(path, line, pass_id, message)``.
    """
    unit_list = list(units)
    pass_list = list(passes)
    by_path: dict[str, ModuleUnit] = {u.display_path: u for u in unit_list}
    findings: list[Finding] = []
    for pass_ in pass_list:
        if not isinstance(pass_, ProjectPass):
            for unit in unit_list:
                findings.extend(
                    found
                    for found in pass_.check(unit)
                    if not unit.is_suppressed(found.line, pass_.id)
                )
    project_passes = [p for p in pass_list if isinstance(p, ProjectPass)]
    if project_passes:
        from repro.analysis.graph import ProjectGraph  # local: avoid import cycle

        graph = ProjectGraph(unit_list)
        for project_pass in project_passes:
            for found in project_pass.check_project(graph):
                unit = by_path.get(found.path)
                if unit is None or not unit.is_suppressed(found.line, project_pass.id):
                    findings.append(found)
    findings.sort(key=lambda f: (f.path, f.line, f.pass_id, f.message))
    return findings


def package_of(module: str) -> str:
    """Top-level package segment under ``repro`` (``""`` for the root).

    ``repro.netsim.link`` → ``netsim``; ``repro`` → ``""``; a module
    outside the ``repro`` namespace → its first dotted segment.
    """
    parts = module.split(".")
    if parts[0] == "repro":
        return parts[1] if len(parts) > 1 else ""
    return parts[0]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
