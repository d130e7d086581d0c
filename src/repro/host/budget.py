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
from repro.obs import Gauge, Tallies, declare
from repro.obs import provenance as obs_provenance
from repro.obs import runtime as obs_runtime

__all__ = ["BudgetExceededError", "SharedPlacementBudget"]

_RESERVED = declare(
    Gauge, "host", "budget.reserved_bytes", "bytes reserved from the shared placement pool"
)
_TALLIES = Tallies({
    "refusals": (
        "host", "budget.refusals", "placement reservations refused (pool or fair share)"
    ),
    "reclaimed_total": (
        "host", "budget.reclaimed_bytes", "bytes returned to the pool by state reclamation"
    ),
})


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
    #: bytes ever returned by :meth:`release` / :meth:`release_bytes`.
    reclaimed_total: int = 0
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
            return self._refuse(key, reason="admission", registered=len(self._reserved))
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
        # fair_share() at a registered key's occupancy, inline.
        share = self._fair_base() // len(self._reserved)
        if share < self.min_share_bytes:
            share = self.min_share_bytes
        if held + nbytes > share or not self._ensure_backing(nbytes):
            return self._refuse(
                key, reason="fair_share", requested=nbytes, held=held, fair_share=share
            )
        self._reserved[key] = held + nbytes
        self.reserved_total += nbytes
        if self.reserved_total > self.peak_reserved:
            self.peak_reserved = self.reserved_total
        registry = obs_runtime._registry
        if registry is not None:
            registry.instruments[_RESERVED].set(self.reserved_total)
        return True

    def _refuse(self, key: object, **fields: object) -> bool:
        """Count and record one refusal of *key*; returns False."""
        before = _TALLIES.read(self) if obs_runtime._registry is not None else None
        self.refusals += 1
        self.refused_keys.add(key)
        if before is not None:
            _TALLIES.publish(before, self)
        journey = obs_provenance._tracker
        if journey is not None and isinstance(key, int):
            journey.emit("budget_refused", key, 0, 0, level="conn", **fields)
        return False

    def release(self, key: object) -> int:
        """Return every byte *key* holds to the pool (state reclamation);
        returns the count freed."""
        return self._reclaim(key, self._reserved.pop(key, 0))

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
        return self._reclaim(key, freed)

    def _reclaim(self, key: object, freed: int) -> int:
        """Return *freed* bytes of *key*'s to the pool; returns *freed*."""
        registry = obs_runtime._registry
        before = _TALLIES.read(self) if registry is not None else None
        self.reserved_total -= freed
        self.reclaimed_total += freed
        if before is not None:
            registry.instruments[_RESERVED].set(self.reserved_total)
            _TALLIES.publish(before, self)
        return freed

    def held(self, key: object) -> int:
        """Bytes currently reserved by *key*."""
        return self._reserved.get(key, 0)

    def was_refused(self, key: object) -> bool:
        """True if *key* ever had a registration or reservation refused."""
        return key in self.refused_keys
