"""Tests for the whole-program import/call graph (repro.analysis.graph).

Synthetic mini-trees exercise alias resolution, call resolution and
reachability in isolation; the real-tree tests pin the structural
invariants the interprocedural passes rely on — in particular that the
project has no orphan modules (everything is reachable from some
importer, so the graph the passes traverse actually covers the tree).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.cli import collect_units
from repro.analysis.core import ModuleUnit, package_of
from repro.analysis.graph import ProjectGraph

REPO_SRC = Path(__file__).parents[2] / "src" / "repro"


def build(tmp_path: Path, files: dict[str, str]) -> ProjectGraph:
    units = []
    for rel, source in files.items():
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        units.append(ModuleUnit.from_path(path))
    return ProjectGraph(units)


MINI_TREE = {
    "core/util.py": (
        '__all__ = ["helper"]\n'
        "def helper():\n"
        "    return 1\n"
    ),
    "host/user.py": (
        "from repro.core.util import helper as h\n"
        '__all__ = ["use"]\n'
        "def use():\n"
        "    return h()\n"
        "def lonely():\n"
        "    return 2\n"
    ),
    "transport/box.py": (
        '__all__ = ["Box"]\n'
        "class Box:\n"
        "    def outer(self):\n"
        "        return self.inner()\n"
        "    def inner(self):\n"
        "        return 0\n"
    ),
}


class TestPackageOf:
    def test_repro_modules(self):
        assert package_of("repro.netsim.link") == "netsim"
        assert package_of("repro.core") == "core"
        assert package_of("repro") == ""

    def test_foreign_module(self):
        assert package_of("os.path") == "os"


class TestImportGraph:
    def test_explicit_edge_with_line(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        explicit = [e for e in graph.import_edges if not e.implicit]
        assert any(
            e.importer == "repro.host.user"
            and e.target == "repro.core.util"
            and e.line == 1
            for e in explicit
        )

    def test_implicit_parent_package_edges(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        implicit = {
            (e.importer, e.target) for e in graph.import_edges if e.implicit
        }
        # `from repro.core.util import ...` implicitly imports the
        # parents repro and repro.core too.
        assert ("repro.host.user", "repro.core") in implicit
        assert ("repro.host.user", "repro") in implicit

    def test_imports_of_and_importers_of(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        assert "repro.core.util" in graph.imports_of("repro.host.user")
        assert graph.importers_of("repro.core.util") == {"repro.host.user"}


class TestResolution:
    def test_resolve_name_through_alias(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        assert graph.resolve_name("repro.host.user", "h") == "repro.core.util.helper"

    def test_local_def_wins_over_alias(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        assert graph.resolve_name("repro.host.user", "use") == "repro.host.user.use"

    def test_resolve_call_pins_aliased_target(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        info = graph.functions["repro.host.user.use"]
        [call] = list(graph.calls_in(info))
        candidates, exact = graph.resolve_call(info, call)
        assert candidates == {"repro.core.util.helper"}
        assert exact is True

    def test_resolve_call_self_method(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        info = graph.functions["repro.transport.box.Box.outer"]
        [call] = list(graph.calls_in(info))
        candidates, exact = graph.resolve_call(info, call)
        assert candidates == {"repro.transport.box.Box.inner"}
        assert exact is True


class TestReachability:
    def test_reaches_across_modules(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        reached = graph.reachable(["repro.host.user.use"])
        assert reached == {"repro.host.user.use", "repro.core.util.helper"}

    def test_module_filter_restricts_traversal(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        reached = graph.reachable(
            ["repro.host.user.use"], module_filter=frozenset({"repro.host.user"})
        )
        assert reached == {"repro.host.user.use"}

    def test_skip_drops_function(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        reached = graph.reachable(
            ["repro.host.user.use"], skip=frozenset({"repro.core.util.helper"})
        )
        assert reached == {"repro.host.user.use"}


class TestSyntheticOrphans:
    def test_unimported_module_is_an_orphan(self, tmp_path):
        graph = build(tmp_path, MINI_TREE)
        orphans = graph.orphan_modules()
        # Nothing imports host.user or transport.box in the mini tree.
        assert "repro.host.user" in orphans
        assert "repro.core.util" not in orphans


@pytest.fixture(scope="module")
def real_graph() -> ProjectGraph:
    return ProjectGraph(collect_units([REPO_SRC]))


class TestRealTree:
    def test_no_orphan_modules(self, real_graph):
        # Every non-structural module must be imported by some other
        # analyzed module; an orphan is dead code the passes would
        # silently skip over.
        assert real_graph.orphan_modules() == []

    def test_covers_the_whole_tree(self, real_graph):
        assert len(real_graph.units) > 80
        assert len(real_graph.functions) > 400
        assert len(real_graph.import_edges) > 500

    def test_resolves_a_known_alias(self, real_graph):
        # transport/receiver.py does `from repro.netsim.events import
        # EventLoop` (or equivalent); spot-check one stable alias.
        assert (
            real_graph.resolve_name("repro.analysis.cli", "all_passes")
            == "repro.analysis.passes.all_passes"
        )


class TestRelativeImports:
    """`from . import x` / `from .. import y` resolution (ISSUE 6)."""

    TREE = {
        "netsim/__init__.py": (
            "from . import events\n"
            "from .link import Link\n"
            "__all__ = []\n"
        ),
        "netsim/events.py": (
            '__all__ = ["Event"]\n'
            "class Event:\n"
            "    pass\n"
        ),
        "netsim/link.py": (
            "from .events import Event\n"
            "from ..core.util import helper\n"
            '__all__ = ["Link"]\n'
            "class Link:\n"
            "    pass\n"
        ),
        "core/util.py": (
            '__all__ = ["helper"]\n'
            "def helper():\n"
            "    return 1\n"
        ),
    }

    def test_package_init_from_dot_import_resolves_to_own_package(self, tmp_path):
        graph = build(tmp_path, self.TREE)
        # `from . import events` inside repro/netsim/__init__.py names
        # repro.netsim (the package itself), binding repro.netsim.events.
        assert "repro.netsim.events" in graph.imports_of("repro.netsim")
        assert graph.resolve_name("repro.netsim", "events") == "repro.netsim.events"

    def test_package_init_relative_symbol_import(self, tmp_path):
        graph = build(tmp_path, self.TREE)
        assert graph.resolve_name("repro.netsim", "Link") == "repro.netsim.link.Link"

    def test_plain_module_single_dot(self, tmp_path):
        graph = build(tmp_path, self.TREE)
        assert graph.resolve_name("repro.netsim.link", "Event") == (
            "repro.netsim.events.Event"
        )

    def test_plain_module_double_dot(self, tmp_path):
        graph = build(tmp_path, self.TREE)
        assert graph.resolve_name("repro.netsim.link", "helper") == (
            "repro.core.util.helper"
        )
        assert "repro.core.util" in graph.imports_of("repro.netsim.link")

    def test_overreaching_level_drops_edge_without_crash(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "solo.py": "from ....nowhere import thing\n__all__ = []\n",
            },
        )
        # The bogus edge is dropped, not invented; the unit still loads.
        assert "repro.solo" in graph.units
        assert all(
            e.importer != "repro.solo" or "nowhere" not in e.target
            for e in graph.import_edges
        )


class TestImportCycles:
    CYCLE = {
        "host/alpha.py": (
            "from repro.host.beta import b\n"
            '__all__ = ["a"]\n'
            "def a():\n"
            "    return b()\n"
        ),
        "host/beta.py": (
            "from repro.host.alpha import a\n"
            '__all__ = ["b"]\n'
            "def b():\n"
            "    return a()\n"
        ),
    }

    def test_cycle_keeps_both_edges(self, tmp_path):
        graph = build(tmp_path, self.CYCLE)
        assert "repro.host.beta" in graph.imports_of("repro.host.alpha")
        assert "repro.host.alpha" in graph.imports_of("repro.host.beta")

    def test_reachability_terminates_across_the_cycle(self, tmp_path):
        graph = build(tmp_path, self.CYCLE)
        reached = graph.reachable(["repro.host.alpha.a"])
        assert reached == {"repro.host.alpha.a", "repro.host.beta.b"}
