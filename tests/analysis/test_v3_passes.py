"""True-positive / near-miss tests for the protolint v3 passes.

The seam-purity scenarios (now held by ``ambient-authority``) get the
TP-plus-nearest-legal-idiom treatment, and the surviving acceptance
scenario is pinned explicitly: injecting ``time.time()`` into
``repro.transport.endpoint`` fails ambient-authority.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import Finding, ModuleUnit, run_passes
from repro.analysis.passes import AmbientAuthorityPass

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
REPO_SRC = Path(__file__).parents[2] / "src" / "repro"


def project_findings(pass_obj, *paths: Path) -> list[Finding]:
    units = [ModuleUnit.from_path(p) for p in paths]
    return run_passes(units, [pass_obj])


def symbols(findings: list[Finding]) -> set[str]:
    return {f.symbol for f in findings}


def real_units() -> list[ModuleUnit]:
    return [ModuleUnit.from_path(p) for p in sorted(REPO_SRC.rglob("*.py"))]


class TestSeamPurity:
    def test_fixture_true_positives(self):
        findings = project_findings(
            AmbientAuthorityPass(), FIXTURES / "transport" / "bad_seam.py"
        )
        assert symbols(findings) == {"ambient:time.time", "ambient:time.monotonic"}
        assert [f.line for f in findings] == [10, 20]

    def test_perf_counter_near_miss_stays_silent(self):
        findings = project_findings(
            AmbientAuthorityPass(), FIXTURES / "transport" / "bad_seam.py"
        )
        assert not any("perf_counter" in f.symbol for f in findings)

    def test_interprocedural_reach_names_the_helper(self):
        findings = project_findings(
            AmbientAuthorityPass(), FIXTURES / "transport" / "bad_seam.py"
        )
        # The finding sits on the laundering helper's own line, not on
        # the clean entry point that calls it (line 16).
        [helper] = [f for f in findings if f.symbol == "ambient:time.monotonic"]
        assert helper.line == 20

    def test_adapter_module_is_exempt(self, tmp_path):
        root = tmp_path / "repro"
        (root / "transport").mkdir(parents=True)
        (root / "netsim").mkdir(parents=True)
        user = root / "transport" / "user.py"
        user.write_text(
            "from repro.netsim.rng import draw\n"
            "__all__ = []\n"
            "def entry():\n"
            "    return draw()\n"
        )
        adapter = root / "netsim" / "rng.py"
        adapter.write_text(
            "import random\n"
            "__all__ = []\n"
            "def draw():\n"
            "    return random.random()\n"
        )
        assert project_findings(AmbientAuthorityPass(), user, adapter) == []

    def test_injecting_time_time_into_endpoint_fails(self):
        # ISSUE 6 acceptance: the real tree is clean, but the same tree
        # with a wall-clock call spliced into the transport endpoint is
        # not — proving the pass watches the real seam, not a toy.
        units = real_units()
        endpoint = next(u for u in units if u.module == "repro.transport.endpoint")
        source = endpoint.source.replace(
            "from __future__ import annotations",
            "from __future__ import annotations\nimport time",
            1,
        )
        marker = "connection._touched_bytes = placed"
        assert marker in source
        source = source.replace(
            marker, marker + "\n        _stamp = time.time()", 1
        )
        tainted = ModuleUnit(
            path=endpoint.path,
            module=endpoint.module,
            source=source,
            tree=ast.parse(source),
        )
        swapped = [tainted if u.module == endpoint.module else u for u in units]
        findings = run_passes(swapped, [AmbientAuthorityPass()])
        assert any(
            f.symbol == "ambient:time.time" and "endpoint" in f.path
            for f in findings
        ), findings
