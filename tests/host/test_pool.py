"""Global pool lending and the elastic per-shard budgets it backs."""

from __future__ import annotations

import pytest

from repro.host.pool import GlobalBudgetPool, ShardBudget

KiB = 1024


def make_pool(**overrides) -> GlobalBudgetPool:
    defaults = dict(pool_bytes=64 * KiB, block_bytes=8 * KiB, min_share_bytes=1 * KiB)
    defaults.update(overrides)
    return GlobalBudgetPool(**defaults)


class TestGlobalBudgetPool:
    def test_lend_rounds_up_to_whole_blocks(self):
        pool = make_pool()
        assert pool.lend(0, 1) == 8 * KiB
        assert pool.lend(1, 8 * KiB) == 8 * KiB
        assert pool.lend(2, 8 * KiB + 1) == 16 * KiB
        assert pool.lent_total == 32 * KiB
        assert pool.available == 32 * KiB
        assert pool.lends == 3

    def test_partial_grant_when_a_whole_block_no_longer_fits(self):
        pool = make_pool(pool_bytes=12 * KiB)
        assert pool.lend(0, 8 * KiB) == 8 * KiB
        # 4 KiB left: a block-rounded 8 KiB doesn't fit, but the raw
        # request does — grant exactly what remains.
        assert pool.lend(1, 3 * KiB) == 4 * KiB
        assert pool.available == 0

    def test_exhausted_pool_refuses_and_counts(self):
        pool = make_pool(pool_bytes=8 * KiB)
        assert pool.lend(0, 8 * KiB) == 8 * KiB
        assert pool.lend(1, 1) == 0
        assert pool.refusals == 1
        assert pool.lent_to(1) == 0

    def test_lend_validates_and_ignores_zero(self):
        pool = make_pool()
        with pytest.raises(ValueError):
            pool.lend(0, -1)
        assert pool.lend(0, 0) == 0
        assert pool.lends == 0

    def test_reclaim_clamps_to_the_shards_loan(self):
        pool = make_pool()
        pool.lend(0, 8 * KiB)
        assert pool.reclaim(0, 64 * KiB) == 8 * KiB
        assert pool.lent_total == 0
        assert pool.lent_to(0) == 0
        # A shard that borrowed nothing returns nothing.
        assert pool.reclaim(5, 8 * KiB) == 0
        with pytest.raises(ValueError):
            pool.reclaim(0, -1)

    def test_peak_lent_tracks_the_high_watermark(self):
        pool = make_pool()
        pool.lend(0, 16 * KiB)
        pool.lend(1, 16 * KiB)
        pool.reclaim(0, 16 * KiB)
        pool.lend(2, 8 * KiB)
        assert pool.peak_lent == 32 * KiB
        assert pool.lent_total == 24 * KiB

    def test_shard_budget_starts_empty_with_a_fixed_share(self):
        pool = make_pool()
        budget = pool.shard_budget(3, num_shards=4)
        assert budget.pool_bytes == 0
        assert budget.shard_index == 3
        assert budget.share_bytes == 16 * KiB
        assert budget.min_share_bytes == pool.min_share_bytes
        with pytest.raises(ValueError):
            pool.shard_budget(0, num_shards=0)


class TestShardBudget:
    def test_fair_share_is_based_on_the_endpoint_share(self):
        pool = make_pool()
        budget = pool.shard_budget(0, num_shards=4)
        # Before any borrowing the cap is the full 16 KiB share, not the
        # zero bytes of backing the shard currently holds.
        assert budget.fair_share() == 16 * KiB
        assert budget.register("a")
        assert budget.register("b")
        assert budget.fair_share() == 8 * KiB

    def test_reserve_borrows_blocks_lazily(self):
        pool = make_pool()
        budget = pool.shard_budget(0, num_shards=4)
        assert budget.reserve("a", 1 * KiB)
        assert budget.pool_bytes == 8 * KiB  # one block borrowed
        assert pool.lent_to(0) == 8 * KiB
        # The next reservations fit in the borrowed block: no new lend.
        assert budget.reserve("a", 4 * KiB)
        assert pool.lends == 1

    def test_fair_share_refusal_never_borrows(self):
        pool = make_pool()
        budget = pool.shard_budget(0, num_shards=4)
        # 20 KiB exceeds the 16 KiB shard share outright.
        assert not budget.reserve("a", 20 * KiB)
        assert budget.refusals == 1
        assert pool.lends == 0
        assert pool.lent_total == 0

    def test_release_returns_surplus_whole_blocks(self):
        pool = make_pool()
        budget = pool.shard_budget(0, num_shards=4)
        assert budget.reserve("a", 6 * KiB)
        assert budget.reserve("b", 6 * KiB)
        assert budget.pool_bytes == 16 * KiB
        budget.release("a")
        # 6 KiB still reserved -> keep one block, return one.
        assert budget.pool_bytes == 8 * KiB
        assert pool.lent_to(0) == 8 * KiB
        budget.release("b")
        assert budget.pool_bytes == 0
        assert pool.lent_total == 0  # fully reclaimed

    def test_partial_release_keeps_backing_for_live_bytes(self):
        pool = make_pool()
        budget = pool.shard_budget(0, num_shards=4)
        assert budget.reserve("a", 16 * KiB)
        assert budget.release_bytes("a", 7 * KiB) == 7 * KiB
        # 9 KiB live -> two blocks stay borrowed.
        assert budget.pool_bytes == 16 * KiB
        assert budget.release_bytes("a", 9 * KiB) == 9 * KiB
        assert budget.pool_bytes == 0

    def test_admission_checks_what_the_shard_could_borrow(self):
        pool = make_pool(pool_bytes=4 * KiB, block_bytes=1 * KiB)
        budget = pool.shard_budget(0, num_shards=1)
        for key in range(4):
            assert budget.register(key)
        # A fifth minimum share cannot be backed even by borrowing.
        assert not budget.register(4)
        assert budget.was_refused(4)

    def test_dry_pool_refuses_at_admission_before_the_lend_seam(self):
        pool = make_pool(pool_bytes=8 * KiB)
        greedy = pool.shard_budget(0, num_shards=1)
        assert greedy.reserve("a", 8 * KiB)
        other = ShardBudget(
            pool_bytes=0, min_share_bytes=1 * KiB,
            pool=pool, shard_index=1, share_bytes=8 * KiB,
        )
        # Nothing left to borrow: admission itself refuses, so the pool
        # is never asked for a block it cannot grant.
        assert not other.reserve("b", 1 * KiB)
        assert other.refusals == 1
        assert pool.refusals == 0 and pool.lends == 1

    def test_pool_exhaustion_surfaces_as_a_counted_refusal(self):
        pool = make_pool(pool_bytes=12 * KiB)
        greedy = pool.shard_budget(0, num_shards=1)
        assert greedy.reserve("a", 8 * KiB)
        other = ShardBudget(
            pool_bytes=0, min_share_bytes=1 * KiB,
            pool=pool, shard_index=1, share_bytes=12 * KiB,
        )
        # 4 KiB remain, so admission passes — but an 8 KiB reservation
        # cannot be backed and the lend seam refuses it.
        assert not other.reserve("b", 8 * KiB)
        assert other.refusals == 1
        assert pool.refusals == 1
        assert pool.lent_total == 8 * KiB

    def test_release_bytes_composes_with_elastic_backing(self):
        pool = make_pool()
        budget = pool.shard_budget(0, num_shards=4)
        assert budget.reserve("a", 6 * KiB)
        assert pool.lent_to(0) == 8 * KiB
        assert not budget.reserve("a", 32 * KiB)  # beyond the shard share
        assert budget.release_bytes("a", 6 * KiB) == 6 * KiB
        # The key stays registered but every surplus block went home.
        assert budget.registered == 1
        assert budget.held("a") == 0
        assert pool.lent_total == 0

    def test_unpooled_shard_budget_degrades_to_the_plain_budget(self):
        budget = ShardBudget(pool_bytes=8 * KiB, min_share_bytes=1 * KiB)
        assert budget.fair_share() == 8 * KiB
        assert budget.reserve("a", 8 * KiB)
        assert not budget.reserve("a", 1)
        budget.release("a")
        assert budget.pool_bytes == 8 * KiB
