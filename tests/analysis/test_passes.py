"""Positive and negative tests for each protolint pass.

Positives parse the deliberately-broken fixture modules under
``fixtures/src/repro`` and assert each pass reports its target defect;
negatives run the same pass on the clean control module (and, for the
tree-wide properties, on the real wire-format core) and assert silence.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import Finding, ModuleUnit, module_name_for_path, run_passes
from repro.analysis.passes import (
    AmbientAuthorityPass,
    CodecSymmetryPass,
    ExceptionDisciplinePass,
    ExportDriftPass,
    WireWidthPass,
    all_passes,
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
        assert found == {"fmt:HBB:endian", "fmt:<I:endian"}

    def test_clean_module_passes(self):
        assert findings_for(WireWidthPass(), CLEAN) == []

    def test_real_codec_passes(self):
        assert findings_for(WireWidthPass(), REPO_SRC / "core" / "codec.py") == []


class TestCodecSymmetry:
    def test_catches_both_directions(self):
        found = symbols(
            findings_for(CodecSymmetryPass(), FIXTURES / "core" / "bad_codec.py")
        )
        assert found == {"encode_record", "decode_trailer"}

    def test_clean_module_passes(self):
        assert findings_for(CodecSymmetryPass(), CLEAN) == []

    def test_real_codec_passes(self):
        assert findings_for(CodecSymmetryPass(), REPO_SRC / "core" / "codec.py") == []


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
        # Same clock calls, but in a tooling package: obs / analysis /
        # perf measure the real world on purpose.
        src_unit = unit(FIXTURES / "transport" / "bad_seam.py")
        src_unit.module = "repro.perf.bad_seam"
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


class TestExportDrift:
    def test_catches_phantom_and_unexported(self):
        found = symbols(
            findings_for(ExportDriftPass(), FIXTURES / "core" / "bad_exports.py")
        )
        assert found == {"phantom:ghost_function", "unexported:stowaway_function"}

    def test_missing_all_is_reported(self, tmp_path):
        mod = tmp_path / "repro" / "core" / "noall.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("def public_thing():\n    return 1\n")
        found = symbols(findings_for(ExportDriftPass(), mod))
        assert "__all__:missing" in found

    def test_entry_point_scripts_owe_no_all(self, tmp_path):
        # Top-level scripts (benchmarks/, examples/) have no importable
        # surface; only the phantom/literal rules apply to them.
        script = tmp_path / "bench_thing.py"
        script.write_text("def main():\n    return 1\n")
        assert findings_for(ExportDriftPass(), script) == []
        phantom = tmp_path / "bench_phantom.py"
        phantom.write_text('__all__ = ["missing_name"]\n')
        found = symbols(findings_for(ExportDriftPass(), phantom))
        assert "phantom:missing_name" in found

    def test_clean_module_passes(self):
        assert findings_for(ExportDriftPass(), CLEAN) == []

    def test_reexport_init_passes(self):
        # __init__ modules bind exports via imports; none are phantoms.
        assert findings_for(ExportDriftPass(), REPO_SRC / "core" / "__init__.py") == []


class TestSuppressionAndFingerprints:
    def test_inline_ignore_silences_finding(self, tmp_path):
        mod = tmp_path / "suppressed.py"
        mod.write_text(
            '__all__ = ["ghost"]  # protolint: ignore[export-drift]\n'
        )
        assert run_passes([unit(mod)], [ExportDriftPass()]) == []

    def test_ignore_is_pass_specific(self, tmp_path):
        mod = tmp_path / "suppressed.py"
        mod.write_text('__all__ = ["ghost"]  # protolint: ignore[wire-width]\n')
        assert len(run_passes([unit(mod)], [ExportDriftPass()])) == 1

    def test_fingerprint_survives_line_shift(self, tmp_path):
        first = tmp_path / "a.py"
        first.write_text('__all__ = ["ghost"]\n')
        second = tmp_path / "b.py"
        second.write_text('\n\n# shifted\n__all__ = ["ghost"]\n')
        [f1] = ExportDriftPass().check(unit(first))
        [f2] = ExportDriftPass().check(unit(second))
        relocated = Finding(
            pass_id=f2.pass_id,
            path=f1.path,
            line=f2.line,
            message=f2.message,
            symbol=f2.symbol,
        )
        assert f1.line != f2.line
        assert relocated.fingerprint == f1.fingerprint


class TestWholeTree:
    @pytest.mark.parametrize("pass_obj", all_passes(), ids=lambda p: p.id)
    def test_real_tree_is_clean(self, pass_obj):
        units = [
            ModuleUnit.from_path(path) for path in sorted(REPO_SRC.rglob("*.py"))
        ]
        assert run_passes(units, [pass_obj]) == []
