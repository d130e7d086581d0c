"""True-positive / near-miss tests for the shard-ownership pass.

The fixture plants cross-domain mutations a per-connection object makes
into per-endpoint and global-pool state — directly, via a mutator call,
and laundered through module helpers — plus an unowned module-level
mutable and an unplaced class.  Narrower-domain and same-domain
mutations must stay clean, and the real tree must be clean (all its
cross-domain writes go through the declared seams).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.core import Finding, ModuleUnit, run_passes
from repro.analysis.passes.shard_ownership import DOMAIN_RANK, ShardOwnershipPass

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
REPO_SRC = Path(__file__).parents[2] / "src" / "repro"
FIXTURE = FIXTURES / "transport" / "bad_shard.py"
POOL_FIXTURE = FIXTURES / "transport" / "bad_shard_pool.py"


def findings_for(*paths: Path) -> list[Finding]:
    units = [ModuleUnit.from_path(p) for p in paths]
    return run_passes(units, [ShardOwnershipPass()])


def symbols(findings: list[Finding]) -> set[str]:
    return {f.symbol for f in findings}


class TestDomainLattice:
    def test_rank_orders_the_four_domains(self):
        assert DOMAIN_RANK["per-connection"] < DOMAIN_RANK["per-shard"]
        assert DOMAIN_RANK["per-shard"] < DOMAIN_RANK["per-endpoint"]
        assert DOMAIN_RANK["per-endpoint"] < DOMAIN_RANK["global-pool"]


class TestFixtureTruePositives:
    def test_expected_findings_fire(self):
        got = symbols(findings_for(FIXTURE))
        assert got == {
            "unowned-module-mutable:_LEAKY",
            "cross-domain-store:FixtureSession.hijack_store:43",
            "cross-domain-call:FixtureSession.hijack_call:46",
            "laundered-mutation:FixtureSession.launder:_reset_table",
            "laundered-mutation:FixtureSession.launder_forwarded:_forward_reset",
            "unplaced-class:FixtureStray",
        }

    def test_direct_store_names_both_domains(self):
        [finding] = [
            f for f in findings_for(FIXTURE) if "hijack_store" in f.symbol
        ]
        assert "(per-connection)" in finding.message
        assert "(global-pool)" in finding.message
        assert "outside every declared seam" in finding.message

    def test_laundering_is_traced_through_forwarding_helper(self):
        # _forward_reset never touches the table itself; it forwards to
        # _reset_table, which does.  The fixpoint must see through it.
        forwarded = [
            f for f in findings_for(FIXTURE) if "launder_forwarded" in f.symbol
        ]
        assert len(forwarded) == 1
        assert "_forward_reset" in forwarded[0].message


class TestPoolFixture:
    """A per-shard worker crossing into the composition and the pool.

    Shard-vs-shard mutation is same-rank, so the lattice models "shard
    A mutates shard B's table" as the worker reaching through the
    per-endpoint composition that holds every shard's state — which is
    the only way the mutation can be written anyway.
    """

    def test_expected_findings_fire(self):
        got = symbols(findings_for(POOL_FIXTURE))
        assert got == {
            "cross-domain-store:FixtureShardWorker.hijack_store:60",
            "cross-domain-call:FixtureShardWorker.hijack_call:63",
            "cross-domain-store:FixtureShardWorker.hijack_pool_store:66",
            "laundered-mutation:FixtureShardWorker.launder_pool:_drain_ledger",
        }

    def test_store_names_shard_and_endpoint_domains(self):
        [finding] = [
            f for f in findings_for(POOL_FIXTURE) if "hijack_store" in f.symbol
        ]
        assert "(per-shard)" in finding.message
        assert "(per-endpoint)" in finding.message

    def test_lend_seam_is_sanctioned(self):
        # The pool's lend/reclaim seam is the declared crossing: a
        # per-shard budget borrowing blocks must stay clean even though
        # `lend` is a tracked mutator on global-pool state.
        for finding in findings_for(POOL_FIXTURE):
            assert "borrow_is_fine" not in finding.symbol

    def test_own_and_narrower_mutations_stay_clean(self):
        for finding in findings_for(POOL_FIXTURE):
            assert "own_table_is_fine" not in finding.symbol
            assert "repack_is_fine" not in finding.symbol


class TestNearMisses:
    def test_clean_idioms_stay_silent(self):
        for finding in findings_for(FIXTURE):
            assert "own_state_is_fine" not in finding.symbol
            assert "narrower_is_fine" not in finding.symbol
        # The owner-commented module mutable is accepted.
        assert "unowned-module-mutable:_POOL" not in symbols(findings_for(FIXTURE))


class TestRealTree:
    def test_real_tree_is_clean(self):
        units = [ModuleUnit.from_path(p) for p in sorted(REPO_SRC.rglob("*.py"))]
        assert run_passes(units, [ShardOwnershipPass()]) == []

    def test_seams_are_the_only_declared_crossings(self):
        # The declared seams are exactly the shared-accounting surface:
        # the placement budget, the global pool's lend/reclaim, the
        # egress queue, the event loop.
        from repro.analysis.passes.shard_ownership import SEAM_METHODS

        owners = {cls for cls, _ in SEAM_METHODS}
        assert owners == {
            "SharedPlacementBudget",
            "GlobalBudgetPool",
            "EgressPacker",
            "EventLoop",
        }
