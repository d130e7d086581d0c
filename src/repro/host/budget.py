"""Shared receive-memory accounting across concurrent connections.

One multiplexed endpoint hosts many conversations, but the receiving
host has one memory pool.  A per-buffer ``limit_bytes`` cannot express
that: the first connection to grow can take the whole pool and lock the
others out — the Turner lock-up story [TURN 92] replayed at connection
granularity.  :class:`SharedPlacementBudget` replaces per-buffer limits
with one pool plus a *fair-share cap*: a connection may reserve at most
``pool_bytes / registered_connections`` (never less than
``min_share_bytes``), so an over-claiming conversation is refused while
every other conversation keeps its share.  Refusals are counted, never
blocking — the refused placement surfaces as a rejected chunk whose
TPDU simply never verifies, and the sender's normal loss recovery (or
give-up) handles it.

Reservations are made as placement regions *grow* (fresh allocation,
not re-writes) and returned wholesale when a connection's state is
reclaimed (close or idle eviction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bounded import BoundedSet
from repro.core.errors import BudgetExceededError
from repro.obs import counter, gauge, journey_handle

__all__ = ["BudgetExceededError", "SharedPlacementBudget"]

_OBS_RESERVED = gauge(
    "host", "budget.reserved_bytes", "bytes reserved from the shared placement pool"
)
_OBS_REFUSALS = counter(
    "host", "budget.refusals", "placement reservations refused (pool or fair share)"
)
_OBS_RECLAIMED = counter(
    "host", "budget.reclaimed_bytes", "bytes returned to the pool by state reclamation"
)
_OBS_JOURNEY = journey_handle()


@dataclass
class SharedPlacementBudget:
    """One memory pool shared by every connection of an endpoint.

    Attributes:
        pool_bytes: total bytes the endpoint may dedicate to placement
            regions across all connections.
        min_share_bytes: floor on the per-connection fair-share cap, so
            a burst of tiny registrations cannot starve every
            connection below a useful region size.
    """

    pool_bytes: int = 256 * 1024 * 1024
    min_share_bytes: int = 64 * 1024

    _reserved: dict[object, int] = field(default_factory=dict)
    reserved_total: int = 0
    peak_reserved: int = 0
    refusals: int = 0
    #: negative cache of refused keys, FIFO-bounded so identifier churn
    #: cannot grow it without limit (a forgotten key simply loses its
    #: :meth:`was_refused` history — counted, not silent).
    refused_keys: BoundedSet = field(default_factory=BoundedSet)

    # ------------------------------------------------------------------

    @property
    def registered(self) -> int:
        """Connections currently drawing from the pool."""
        return len(self._reserved)

    def _fair_base(self) -> int:
        """Bytes the fair-share cap divides among registered keys.

        Subclass hook (:class:`repro.host.pool.ShardBudget` caps shards
        at their share of the endpoint pool, not at their elastic
        borrowed backing).
        """
        return self.pool_bytes

    def _admission_capacity(self) -> int:
        """Bytes a registration's minimum-share promise is checked against.

        Subclass hook: a shard budget admits against what it *could*
        borrow, not only what it currently holds.
        """
        return self.pool_bytes

    def _ensure_backing(self, nbytes: int) -> bool:
        """True when *nbytes* more can be backed by this budget's pool.

        Subclass hook: a shard budget borrows token blocks from the
        :class:`repro.host.pool.GlobalBudgetPool` here.  Called only
        after the fair-share check passes, so a refusal never borrows.
        """
        return self.reserved_total + nbytes <= self.pool_bytes

    def fair_share(self) -> int:
        """The per-connection reservation cap at the current occupancy."""
        if not self._reserved:
            return self._fair_base()
        return max(self._fair_base() // len(self._reserved), self.min_share_bytes)

    def register(self, key: object) -> bool:
        """Admit *key* to the pool; False when even a minimum share
        cannot be promised (the endpoint refuses the connection)."""
        if key in self._reserved:
            return True
        if (len(self._reserved) + 1) * self.min_share_bytes > self._admission_capacity():
            self.refusals += 1
            self.refused_keys.add(key)
            _OBS_REFUSALS.inc()
            if _OBS_JOURNEY and isinstance(key, int):
                _OBS_JOURNEY.emit(
                    "budget_refused", key, 0, 0, level="conn",
                    reason="admission", registered=len(self._reserved),
                )
            return False
        self._reserved[key] = 0
        return True

    def reserve(self, key: object, nbytes: int) -> bool:
        """Reserve *nbytes* of fresh placement region for *key*.

        Refuses (returns False, counts) when the pool is exhausted or
        the connection would exceed its fair share; never blocks.
        """
        if nbytes < 0:
            raise ValueError(f"negative reservation {nbytes}")
        held = self._reserved.get(key)
        if held is None:
            if not self.register(key):
                return False
            held = 0
        if held + nbytes > self.fair_share() or not self._ensure_backing(nbytes):
            self.refusals += 1
            self.refused_keys.add(key)
            _OBS_REFUSALS.inc()
            if _OBS_JOURNEY and isinstance(key, int):
                _OBS_JOURNEY.emit(
                    "budget_refused", key, 0, 0, level="conn",
                    reason="fair_share", requested=nbytes, held=held,
                    fair_share=self.fair_share(),
                )
            return False
        self._reserved[key] = held + nbytes
        self.reserved_total += nbytes
        if self.reserved_total > self.peak_reserved:
            self.peak_reserved = self.reserved_total
        _OBS_RESERVED.set(self.reserved_total)
        return True

    def release(self, key: object) -> int:
        """Return every byte *key* holds to the pool (state reclamation);
        returns the count freed."""
        freed = self._reserved.pop(key, 0)
        self.reserved_total -= freed
        _OBS_RESERVED.set(self.reserved_total)
        _OBS_RECLAIMED.inc(freed)
        return freed

    def release_bytes(self, key: object, nbytes: int) -> int:
        """Return up to *nbytes* of *key*'s reservation to the pool.

        Clamped to what *key* currently holds, so a partial return after
        a wholesale :meth:`release` (eviction raced the owner) cannot
        double-subtract.  The key stays registered — admission lifecycle
        belongs to :meth:`register`/:meth:`release`.
        """
        if nbytes < 0:
            raise ValueError(f"negative release {nbytes}")
        held = self._reserved.get(key)
        if held is None:
            return 0
        freed = min(nbytes, held)
        self._reserved[key] = held - freed
        self.reserved_total -= freed
        _OBS_RESERVED.set(self.reserved_total)
        _OBS_RECLAIMED.inc(freed)
        return freed

    def held(self, key: object) -> int:
        """Bytes currently reserved by *key*."""
        return self._reserved.get(key, 0)

    def was_refused(self, key: object) -> bool:
        """True if *key* ever had a registration or reservation refused."""
        return key in self.refused_keys
