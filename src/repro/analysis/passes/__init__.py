"""The protolint passes (see :mod:`repro.analysis` for overview).

Nine are per-module AST checks and four are interprocedural, running
over the :class:`~repro.analysis.graph.ProjectGraph` the runner builds
from the full module set (hot-path-copy and seam-purity on its
reachability queries).  The two newest passes bind the code to its
declarative models: state-drift cross-checks lifecycle mutations
against :mod:`repro.core.state_table`, and shard-ownership checks that
mutations stay inside their declared owner domain.  Retired passes are
listed in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.core import Pass
from repro.analysis.passes.codec_symmetry import CodecSymmetryPass
from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.exception_discipline import ExceptionDisciplinePass
from repro.analysis.passes.export_drift import ExportDriftPass
from repro.analysis.passes.hot_path_copy import HotPathCopyPass
from repro.analysis.passes.layering import LayeringPass
from repro.analysis.passes.mutable_sharing import MutableSharingPass
from repro.analysis.passes.rng_flow import RngFlowPass
from repro.analysis.passes.seam_purity import SeamPurityPass
from repro.analysis.passes.shard_ownership import ShardOwnershipPass
from repro.analysis.passes.state_drift import StateDriftPass
from repro.analysis.passes.wire_drift import WireDriftPass
from repro.analysis.passes.wire_width import WireWidthPass

__all__ = [
    "WireWidthPass",
    "WireDriftPass",
    "CodecSymmetryPass",
    "DeterminismPass",
    "ExceptionDisciplinePass",
    "ExportDriftPass",
    "LayeringPass",
    "RngFlowPass",
    "HotPathCopyPass",
    "MutableSharingPass",
    "SeamPurityPass",
    "StateDriftPass",
    "ShardOwnershipPass",
    "all_passes",
]


def all_passes() -> list[Pass]:
    """Fresh instances of every pass, in documentation order."""
    return [
        WireWidthPass(),
        WireDriftPass(),
        CodecSymmetryPass(),
        DeterminismPass(),
        ExceptionDisciplinePass(),
        ExportDriftPass(),
        LayeringPass(),
        RngFlowPass(),
        HotPathCopyPass(),
        MutableSharingPass(),
        SeamPurityPass(),
        StateDriftPass(),
        ShardOwnershipPass(),
    ]
