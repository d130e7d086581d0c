"""True-positive / near-miss tests for the interprocedural passes.

Each fixture module pairs the defect the pass exists to catch with the
nearest legal idiom (the near-miss), so these tests pin both the recall
and the precision of every pass: the TP must fire, the near-miss must
stay silent.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.core import Finding, ModuleUnit, run_passes
from repro.analysis.graph import ProjectGraph
from repro.analysis.passes import (
    AmbientAuthorityPass,
    HotPathCopyPass,
    LayeringPass,
    MutableSharingPass,
)

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
REPO_SRC = Path(__file__).parents[2] / "src" / "repro"


def project_findings(pass_obj, *paths: Path) -> list[Finding]:
    units = [ModuleUnit.from_path(p) for p in paths]
    return run_passes(units, [pass_obj])


def symbols(findings: list[Finding]) -> set[str]:
    return {f.symbol for f in findings}


class TestLayering:
    def test_upward_import_is_flagged(self):
        findings = project_findings(LayeringPass(), FIXTURES / "core" / "bad_layering.py")
        assert symbols(findings) == {
            "upward-import:repro.core.bad_layering->repro.transport.receiver"
        }

    def test_near_misses_stay_silent(self):
        # The fixture also imports repro.obs (meta layer) and
        # repro.core.chunk (same package); only the transport import may
        # fire, so exactly one finding proves both near-misses pass.
        findings = project_findings(LayeringPass(), FIXTURES / "core" / "bad_layering.py")
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_transfer_path_import_of_paper_is_flagged(self):
        findings = project_findings(
            LayeringPass(), FIXTURES / "transport" / "bad_paper_import.py"
        )
        assert symbols(findings) == {
            "upward-import:repro.transport.bad_paper_import->repro.paper.receiver"
        }

    def test_unknown_package_is_flagged(self, tmp_path):
        path = tmp_path / "repro" / "sidecar" / "rogue.py"
        path.parent.mkdir(parents=True)
        path.write_text("from repro.core.chunk import Chunk\n__all__ = []\n")
        findings = project_findings(LayeringPass(), path)
        assert symbols(findings) == {"unknown-package:sidecar"}


class TestRngFlow:
    """What the retired ``rng-flow`` taint pass caught, now caught where
    the unseeded stream is *built* rather than where it arrives."""

    def test_laundered_unseeded_random_is_flagged(self):
        findings = project_findings(
            AmbientAuthorityPass(), FIXTURES / "app" / "bad_rng_flow.py"
        )
        assert symbols(findings) == {"ambient:random.Random()"}
        [finding] = findings
        assert finding.line == 12  # `_fresh`, the origin — not `attach`, three hops on

    def test_seeded_near_misses_stay_silent(self):
        # attach_seeded (substream) and attach_direct_seed (Random(42))
        # share the fixture; the single finding above proves both clean.
        findings = project_findings(
            AmbientAuthorityPass(), FIXTURES / "app" / "bad_rng_flow.py"
        )
        assert len(findings) == 1

    def test_direct_unseeded_kwarg_without_resolvable_callee(self, tmp_path):
        path = tmp_path / "repro" / "app" / "direct.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import random\n"
            "__all__ = ['go']\n"
            "def go(thing):\n"
            "    thing.attach(rng=random.Random())\n"
        )
        [finding] = project_findings(AmbientAuthorityPass(), path)
        assert (finding.symbol, finding.line) == ("ambient:random.Random()", 4)


class TestHotPathCopy:
    def test_all_three_copy_idioms_fire(self):
        findings = project_findings(
            HotPathCopyPass(), FIXTURES / "transport" / "bad_hot_copy.py"
        )
        assert symbols(findings) == {
            "copy-slice:repro.transport.bad_hot_copy.FixtureReceiver.receive_chunk:payload",
            "copy-ctor:repro.transport.bad_hot_copy.FixtureReceiver.receive_chunk:payload",
            "copy-concat:repro.transport.bad_hot_copy.FixtureReceiver._stitch:data",
        }

    def test_concat_is_found_interprocedurally(self):
        # _stitch is not an entry point; it is hot only because
        # receive_chunk calls it through the project call graph.
        findings = project_findings(
            HotPathCopyPass(), FIXTURES / "transport" / "bad_hot_copy.py"
        )
        assert any(f.symbol.startswith("copy-concat:") and f.line == 14 for f in findings)

    def test_memoryview_and_cold_code_stay_silent(self):
        # Line 8 slices a memoryview (zero-copy) and cold_accessor has
        # an identical payload slice outside the receive path; neither
        # may fire.
        findings = project_findings(
            HotPathCopyPass(), FIXTURES / "transport" / "bad_hot_copy.py"
        )
        assert len(findings) == 3
        assert not any(f.line == 8 for f in findings)
        assert not any("cold_accessor" in f.symbol for f in findings)

    def test_reassemble_budgeted_copy_is_suppressed_inline(self):
        # The raw pass sees the one reassembly concatenation the paper's
        # touch budget pays for; the inline ignore keeps the tree clean.
        unit = ModuleUnit.from_path(REPO_SRC / "core" / "reassemble.py")
        raw = list(HotPathCopyPass().check_project(ProjectGraph([unit])))
        assert [f.symbol for f in raw if f.symbol.startswith("copy-concat:")]
        assert run_passes([unit], [HotPathCopyPass()]) == []


class TestMutableSharing:
    def test_lambda_mutation_and_global_rebind_fire(self):
        findings = project_findings(
            MutableSharingPass(), FIXTURES / "netsim" / "bad_sharing.py"
        )
        assert symbols(findings) == {
            "shared-mutation:SHARED_LOG.append",
            "shared-rebind:EVENTS",
            # one call below the callback: Link.send's lambda calls
            # self._arrive, and self._tick is the callback itself.
            "shared-mutation:ARRIVALS.append",
            "shared-store:TICKS",
        }

    def test_per_call_closure_state_stays_silent(self):
        # schedule_ok mutates a per-call dict and the caller's own
        # object, Link._deliver its own instance; four findings total
        # proves none of them fires.
        findings = project_findings(
            MutableSharingPass(), FIXTURES / "netsim" / "bad_sharing.py"
        )
        assert len(findings) == 4

    def test_subscript_store_on_module_state(self, tmp_path):
        path = tmp_path / "repro" / "netsim" / "store.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "__all__ = ['go']\n"
            "TABLE = {}\n"
            "def go(loop):\n"
            "    def cb():\n"
            "        TABLE['k'] = 1\n"
            "    loop.at(1.0, cb)\n"
        )
        findings = project_findings(MutableSharingPass(), path)
        assert symbols(findings) == {"shared-store:TABLE"}
