"""The lifecycle checker: the declared connection FSM against a live endpoint.

:mod:`repro.analysis.state_table` declares the connection lifecycle, one
row per transition; :mod:`repro.analysis.modelcheck` runs that table
against a live :class:`~repro.transport.endpoint.ChunkEndpoint` in every
reachable state of a bounded configuration (``tests/analysis/
test_modelcheck.py``; ``tests/properties/test_lifecycle_conformance.py``
takes the same checked steps on random walks).  It has no command line.

Nothing here lints source text.  Each fault class a lint pass once
guessed at from syntax is caught by a tier-1 check that runs the code;
``docs/static-analysis.md`` tables which check catches which planted
fault.
"""

from __future__ import annotations

from repro.analysis.modelcheck import ModelCheckResult, ModelConfig, explore

__all__ = ["ModelConfig", "ModelCheckResult", "explore"]
