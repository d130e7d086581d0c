"""Global placement pool lending token blocks to per-shard budgets.

Sharding the endpoint by C.ID hash splits the connection table N ways,
but the receiving host still has *one* memory pool.  Giving each shard
``pool_bytes / N`` statically would re-create the lock-out problem the
:class:`~repro.host.budget.SharedPlacementBudget` exists to solve, one
level up: a shard that happens to own the busy conversations starves
while its siblings sit on idle memory.  Instead the endpoint owns a
single :class:`GlobalBudgetPool` and each shard runs a
:class:`ShardBudget` — a ``SharedPlacementBudget`` whose *backing* is
elastic: it starts empty and borrows whole token blocks from the global
pool as reservations grow, returning surplus blocks whenever
reclamation (close or idle eviction) frees them.

The pool is the one thing every shard shares, and
:meth:`GlobalBudgetPool.lend` / :meth:`GlobalBudgetPool.reclaim`, called
by a shard's own budget, are the only way per-shard code changes it
(``repro.analysis.simsan``'s shard watch fails a run whose books stop
balancing).  Fair-share refusal stays a per-shard decision (each shard
caps a connection at its share of the endpoint pool), and the refusal
check runs before any borrowing, so a refused reservation never moves a
block.  Block granularity keeps the cross-shard channel cold: one lend
covers many chunk-sized reservations, so the per-chunk hot path touches
only shard-local state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.host.budget import SharedPlacementBudget
from repro.obs import counter, gauge

__all__ = ["GlobalBudgetPool", "ShardBudget"]

_OBS_LENT = gauge(
    "host", "pool.lent_bytes", "bytes currently lent to per-shard budgets"
)
_OBS_LENDS = counter(
    "host", "pool.lends", "token-block lends granted to shard budgets"
)
_OBS_RECLAIMS = counter(
    "host", "pool.reclaimed_bytes", "lent bytes returned to the global pool"
)
_OBS_POOL_REFUSALS = counter(
    "host", "pool.refusals", "shard lend requests the exhausted pool refused"
)


@dataclass
class GlobalBudgetPool:
    """One endpoint-wide pool of placement bytes, lent out in blocks.

    Attributes:
        pool_bytes: total bytes the endpoint may dedicate to placement
            regions across all shards.
        block_bytes: lend granularity — requests are rounded up to
            whole blocks so shards come back rarely, not per chunk.
        min_share_bytes: per-connection fair-share floor handed down to
            the shard budgets this pool creates.
    """

    pool_bytes: int = 256 * 1024 * 1024
    block_bytes: int = 256 * 1024
    min_share_bytes: int = 64 * 1024

    lent_total: int = 0
    peak_lent: int = 0
    lends: int = 0
    reclaims: int = 0
    refusals: int = 0
    _lent: dict[int, int] = field(default_factory=dict)

    @property
    def available(self) -> int:
        """Bytes not currently lent to any shard."""
        return self.pool_bytes - self.lent_total

    def lend(self, shard: int, nbytes: int) -> int:
        """Lend at least *nbytes* to *shard*, rounded up to whole blocks.

        Returns the bytes granted — the rounded amount when it fits, a
        partial grant when the pool can still cover *nbytes* but not a
        whole block boundary, and 0 (a counted refusal) when the pool
        cannot back the request at all.  Never blocks.
        """
        if nbytes < 0:
            raise ValueError(f"negative lend {nbytes}")
        if nbytes == 0:
            return 0
        blocks = -(-nbytes // self.block_bytes)
        want = blocks * self.block_bytes
        if want <= self.available:
            granted = want
        elif nbytes <= self.available:
            granted = self.available
        else:
            self.refusals += 1
            _OBS_POOL_REFUSALS.inc()
            return 0
        self._lent[shard] = self._lent.get(shard, 0) + granted
        self.lent_total += granted
        if self.lent_total > self.peak_lent:
            self.peak_lent = self.lent_total
        self.lends += 1
        _OBS_LENT.set(self.lent_total)
        _OBS_LENDS.inc()
        return granted

    def reclaim(self, shard: int, nbytes: int) -> int:
        """Take back up to *nbytes* of *shard*'s loan; returns the count.

        Clamped to what *shard* actually borrowed, so an over-eager
        return cannot push the pool's books negative.
        """
        if nbytes < 0:
            raise ValueError(f"negative reclaim {nbytes}")
        held = self._lent.get(shard, 0)
        returned = min(nbytes, held)
        if returned:
            remaining = held - returned
            if remaining:
                self._lent[shard] = remaining
            else:
                self._lent.pop(shard)
            self.lent_total -= returned
            self.reclaims += 1
            _OBS_LENT.set(self.lent_total)
            _OBS_RECLAIMS.inc(returned)
        return returned

    def lent_to(self, shard: int) -> int:
        """Bytes currently on loan to *shard*."""
        return self._lent.get(shard, 0)

    def shard_budget(self, shard_index: int, num_shards: int) -> "ShardBudget":
        """A per-shard budget drawing its backing from this pool.

        The shard's fair-share base is ``pool_bytes / num_shards`` — the
        cap is a property of the endpoint-wide pool, not of however many
        blocks the shard happens to hold right now.
        """
        if num_shards < 1:
            raise ValueError(f"need at least one shard (num_shards={num_shards})")
        return ShardBudget(
            pool_bytes=0,
            min_share_bytes=self.min_share_bytes,
            pool=self,
            shard_index=shard_index,
            share_bytes=self.pool_bytes // num_shards,
        )


@dataclass
class ShardBudget(SharedPlacementBudget):
    """A shard's placement budget, backed by borrowed pool blocks.

    Behaves exactly like :class:`SharedPlacementBudget` at the
    connection surface (register / reserve / release), with
    three overrides:

    - the fair-share base is the shard's fixed ``share_bytes``, not the
      elastic borrowed backing (otherwise a shard's cap would shrink to
      whatever it had borrowed so far);
    - backing is ensured lazily by borrowing blocks through the
      :meth:`GlobalBudgetPool.lend` seam — only after the fair-share
      check passes, so refusals never borrow;
    - reclamation returns surplus whole blocks through
      :meth:`GlobalBudgetPool.reclaim`, so after every connection is
      evicted the global pool is fully reclaimed.
    """

    pool: GlobalBudgetPool | None = None
    shard_index: int = 0
    share_bytes: int = 0

    def _fair_base(self) -> int:
        return self.share_bytes if self.share_bytes else self.pool_bytes

    def _admission_capacity(self) -> int:
        capacity = self.pool_bytes
        if self.pool is not None:
            capacity += self.pool.available
        return capacity

    def _ensure_backing(self, nbytes: int) -> bool:
        if self.reserved_total + nbytes <= self.pool_bytes:
            return True
        if self.pool is None:
            return False
        need = self.reserved_total + nbytes - self.pool_bytes
        granted = self.pool.lend(self.shard_index, need)
        if granted:
            self.pool_bytes += granted
        return self.reserved_total + nbytes <= self.pool_bytes

    def release(self, key: object) -> int:
        freed = super().release(key)
        self._return_surplus()
        return freed

    def release_bytes(self, key: object, nbytes: int) -> int:
        freed = super().release_bytes(key, nbytes)
        self._return_surplus()
        return freed

    def _return_surplus(self) -> None:
        """Give whole blocks not backing live reservations to the pool."""
        if self.pool is None:
            return
        block = self.pool.block_bytes
        keep = -(-self.reserved_total // block) * block
        surplus = self.pool_bytes - keep
        if surplus > 0:
            returned = self.pool.reclaim(self.shard_index, surplus)
            self.pool_bytes -= returned
