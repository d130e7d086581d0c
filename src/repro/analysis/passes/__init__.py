"""The protolint passes (see :mod:`repro.analysis` for overview).

Five are per-module AST checks; three run over the
:class:`~repro.analysis.graph.ProjectGraph` the runner builds from the
full module set (layering on its import edges, hot-path-copy on its
reachability queries, ambient-authority on its alias tables).  None
binds the code to a table by reading it: the wire layout and shard
ownership are checked by running the code.  Retired passes — and what
holds each one's property now — are listed in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.core import Pass
from repro.analysis.passes.ambient_authority import AmbientAuthorityPass
from repro.analysis.passes.codec_symmetry import CodecSymmetryPass
from repro.analysis.passes.exception_discipline import ExceptionDisciplinePass
from repro.analysis.passes.export_drift import ExportDriftPass
from repro.analysis.passes.hot_path_copy import HotPathCopyPass
from repro.analysis.passes.layering import LayeringPass
from repro.analysis.passes.mutable_sharing import MutableSharingPass
from repro.analysis.passes.wire_width import WireWidthPass

__all__ = [
    "WireWidthPass",
    "CodecSymmetryPass",
    "AmbientAuthorityPass",
    "ExceptionDisciplinePass",
    "ExportDriftPass",
    "LayeringPass",
    "HotPathCopyPass",
    "MutableSharingPass",
    "all_passes",
]


def all_passes() -> list[Pass]:
    """Fresh instances of every pass, in documentation order."""
    return [
        WireWidthPass(),
        CodecSymmetryPass(),
        AmbientAuthorityPass(),
        ExceptionDisciplinePass(),
        ExportDriftPass(),
        LayeringPass(),
        HotPathCopyPass(),
        MutableSharingPass(),
    ]
