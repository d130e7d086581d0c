"""The lint gate: every protolint pass over the tree, one test id per pass.

``test_tree_is_clean[<pass-id>]`` runs one pass over every ``*.py`` of
:data:`SCOPE` and fails with one ``path:line: pass-id message`` line per
finding.  Any finding fails; an inline ``# protolint: ignore[<pass-id>]``
is the only way to silence one, and every id such an ignore names must
be a live pass.  Run one pass alone with
``pytest "tests/analysis/test_tree_is_clean.py::test_tree_is_clean[layering]"``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import ModuleUnit, Pass, run_passes
from repro.analysis.passes import all_passes

REPO = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"

#: The linted trees, repo-relative; the tests and their fixtures stay out.
SCOPE = ("src/repro", "benchmarks", "examples")

LIVE_PASS_IDS = {pass_.id for pass_ in all_passes()}


@pytest.fixture(scope="module")
def units() -> list[ModuleUnit]:
    return [
        ModuleUnit.from_path(path, display_path=path.relative_to(REPO).as_posix())
        for tree in SCOPE
        for path in sorted((REPO / tree).rglob("*.py"))
    ]


def _fail_with(lines: list[str]) -> None:
    if lines:
        pytest.fail("\n".join(lines), pytrace=False)


@pytest.mark.parametrize("pass_", all_passes(), ids=lambda pass_: pass_.id)
def test_tree_is_clean(units: list[ModuleUnit], pass_: Pass) -> None:
    _fail_with([finding.render() for finding in run_passes(units, [pass_])])


def test_inline_ignores_name_live_passes(units: list[ModuleUnit]) -> None:
    # An ignore naming a retired or misspelt pass suppresses nothing and
    # no finding can reveal it, so it is checked here by name.
    _fail_with([
        f"{unit.display_path}:{line}: inline ignore names unknown pass {pass_id!r}"
        for unit in units
        for line, pass_id in unit.suppressed_ids()
        if pass_id not in LIVE_PASS_IDS
    ])


def test_fixtures_fire_every_pass() -> None:
    fixtures = [ModuleUnit.from_path(path) for path in sorted(FIXTURES.rglob("*.py"))]
    fired = {finding.pass_id for finding in run_passes(fixtures, all_passes())}
    assert fired == LIVE_PASS_IDS
