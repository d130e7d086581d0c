"""Bounded insertion-ordered sets for tombstone-style negative caches.

Tombstones (evicted C.IDs, budget-refused keys) exist so that *late*
traffic for reclaimed state can be classified precisely — but a negative
cache an attacker can grow without limit is itself a memory hole: churn
through a million fresh identifiers and the "bounded state" endpoint
keeps a million tombstones.  :class:`BoundedSet` caps the cache with
FIFO eviction: the oldest tombstone is forgotten first, and traffic for
a forgotten identifier degrades gracefully to the *unknown* (rather than
*evicted*) classification.  The degradation is counted (``dropped``), so
the imprecision is observable, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Hashable, Iterator, TypeVar

__all__ = ["BoundedSet"]

K = TypeVar("K", bound=Hashable)


@dataclass
class BoundedSet(Generic[K]):
    """An insertion-ordered set holding at most *max_entries* keys.

    Adding beyond capacity forgets the oldest key (FIFO) and counts it
    in ``dropped``.  Re-adding a present key refreshes nothing — the
    original insertion keeps its age, so an attacker cannot keep a
    tombstone alive by replaying traffic for it.
    """

    max_entries: int = 4096
    dropped: int = 0
    _entries: dict[K, None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {self.max_entries}")

    def add(self, key: K) -> K | None:
        """Add *key*; returns the key it forgot to stay in bound, or None."""
        if key in self._entries:
            return None
        self._entries[key] = None
        forgotten: K | None = None
        while len(self._entries) > self.max_entries:
            forgotten = next(iter(self._entries))
            del self._entries[forgotten]
            self.dropped += 1
        return forgotten

    def discard(self, key: K) -> None:
        self._entries.pop(key, None)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)
