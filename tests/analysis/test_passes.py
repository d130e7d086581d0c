"""Positive and negative tests for each protolint pass.

Positives parse the deliberately-broken fixture modules under
``fixtures/src/repro`` and assert each pass reports its target defect;
negatives run the same pass on the clean control module (and, for the
tree-wide properties, on the real wire-format core) and assert silence.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.core import Finding, ModuleUnit, module_name_for_path, run_passes
from repro.analysis.passes import (
    AmbientAuthorityPass,
    ExceptionDisciplinePass,
    WireWidthPass,
)

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
REPO_SRC = Path(__file__).parents[2] / "src" / "repro"


def unit(path: Path) -> ModuleUnit:
    return ModuleUnit.from_path(path)


def findings_for(pass_obj, path: Path) -> list[Finding]:
    return list(pass_obj.check(unit(path)))


def symbols(findings: list[Finding]) -> set[str]:
    return {f.symbol for f in findings}


CLEAN = FIXTURES / "netsim" / "clean_module.py"


class TestModuleNaming:
    def test_anchors_at_repro(self):
        assert module_name_for_path(FIXTURES / "netsim" / "bad_random.py") == (
            "repro.netsim.bad_random"
        )
        assert module_name_for_path(Path("src/repro/core/codec.py")) == "repro.core.codec"
        assert module_name_for_path(Path("src/repro/core/__init__.py")) == "repro.core"

    def test_foreign_path_falls_back_to_stem(self):
        assert module_name_for_path(Path("/tmp/other/tool.py")) == "tool"


class TestWireWidth:
    def test_catches_native_byte_order(self):
        found = symbols(findings_for(WireWidthPass(), FIXTURES / "core" / "bad_wire.py"))
        assert found == {"fmt:HBB:endian", "fmt:<I:endian", "fmt:%dI:endian", "fmt:{}I:endian"}

    def test_clean_module_passes(self):
        assert findings_for(WireWidthPass(), CLEAN) == []

    def test_real_codec_passes(self):
        assert findings_for(WireWidthPass(), REPO_SRC / "core" / "codec.py") == []


class TestDeterminism:
    """The per-module half of what ``ambient-authority`` took over from
    the retired ``determinism`` pass."""

    def test_catches_random_time_and_urandom(self):
        findings = run_passes(
            [unit(FIXTURES / "netsim" / "bad_random.py")], [AmbientAuthorityPass()]
        )
        assert symbols(findings) == {
            "ambient:random.random",
            "ambient:time.time",
            "ambient:os.urandom",
            "ambient:random.Random()",
        }
        assert [f.line for f in findings] == [11, 11, 15, 15]

    def test_out_of_scope_module_is_ignored(self):
        # Same clock calls, but in a tooling package: obs / analysis
        # measure the real world on purpose.
        src_unit = unit(FIXTURES / "transport" / "bad_seam.py")
        src_unit.module = "repro.analysis.bad_seam"
        assert run_passes([src_unit], [AmbientAuthorityPass()]) == []

    def test_rng_module_is_exempt(self):
        rng = unit(REPO_SRC / "netsim" / "rng.py")
        assert run_passes([rng], [AmbientAuthorityPass()]) == []

    def test_clean_module_passes(self):
        assert run_passes([unit(CLEAN)], [AmbientAuthorityPass()]) == []

    def test_real_link_module_passes(self):
        link = unit(REPO_SRC / "netsim" / "link.py")
        assert run_passes([link], [AmbientAuthorityPass()]) == []


class TestExceptionDiscipline:
    def test_catches_all_four_defects(self):
        found = symbols(
            findings_for(ExceptionDisciplinePass(), FIXTURES / "core" / "bad_excepts.py")
        )
        assert "class:LocalProtocolError" in found
        assert "raise:RuntimeError" in found
        assert "raise:LocalProtocolError" in found
        assert "bare-except" in found
        assert "broad-except" in found

    def test_canonical_raises_allowed(self):
        assert findings_for(ExceptionDisciplinePass(), CLEAN) == []

    def test_errors_module_may_define_exceptions(self):
        assert (
            findings_for(ExceptionDisciplinePass(), REPO_SRC / "core" / "errors.py") == []
        )


class TestSuppressionAndFingerprints:
    def test_inline_ignore_silences_finding(self, tmp_path):
        mod = tmp_path / "suppressed.py"
        mod.write_text('import struct\nX = struct.pack("I", 1)  # protolint: ignore[wire-width]\n')
        assert run_passes([unit(mod)], [WireWidthPass()]) == []

    def test_ignore_is_pass_specific(self, tmp_path):
        mod = tmp_path / "suppressed.py"
        mod.write_text('import struct\nX = struct.pack("I", 1)  # protolint: ignore[layering]\n')
        assert len(run_passes([unit(mod)], [WireWidthPass()])) == 1
