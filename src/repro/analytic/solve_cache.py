"""Keyed, thread-safe LRU memoization for expensive structural solves.

The SAN capacity pipeline (reachability graph, Erlang phase-type
unfolding, sparse steady-state solve) depends only on the frozen
:class:`~repro.analytic.capacity.CapacityModelConfig` and the stage
count -- not on the QoS-side parameters ``tau`` and ``mu``.  Sweeps and
figure experiments therefore repeat identical solves many times; this
module provides the cache that collapses them to one solve per distinct
key (see :mod:`repro.analytic.capacity` for the cache instances and
:mod:`repro.experiments.engine` for the sweep runner built on top).

Design notes
------------

* Keys must be hashable; frozen dataclasses of scalars qualify.
* ``get_or_compute`` holds the cache lock across a miss's factory call,
  so concurrent threads asking for the same key trigger **exactly one**
  solve -- the property the hit/miss counters (and the tests asserting
  "a tau sweep performs one capacity solve") rely on.  Cross-*process*
  parallelism gets the same economy by seeding worker caches from a
  parent snapshot instead (:meth:`LRUSolveCache.snapshot` /
  :meth:`LRUSolveCache.seed`).
* Hit/miss/eviction counters live in the :mod:`repro.obs` registry as
  ``<name>.hits`` / ``.misses`` / ``.evictions``, so they travel through
  the same snapshot/delta/merge as every other counter.  They are
  monotonic across ``clear()`` unless ``reset_stats`` is requested.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Tuple

from repro import obs
from repro.errors import ConfigurationError

__all__ = ["CacheStats", "LRUSolveCache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`LRUSolveCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total ``get_or_compute`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """``hits / lookups`` (0.0 when nothing was looked up)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class LRUSolveCache:
    """A bounded least-recently-used cache with solve accounting.

    Parameters
    ----------
    maxsize:
        Entries retained; the least recently used entry is evicted
        beyond this.  Must be >= 1.
    name:
        Registry prefix of the cache's counters (see :mod:`repro.obs`)
        and its ``repr`` label.  Constructing a cache claims the name:
        its counters restart at zero.
    """

    def __init__(self, maxsize: int = 64, *, name: str = "solve-cache"):
        if maxsize < 1:
            raise ConfigurationError(
                f"cache maxsize must be >= 1, got {maxsize}"
            )
        self.name = name
        self._maxsize = int(maxsize)
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._names = {
            counter: f"{name}.{counter}"
            for counter in ("hits", "misses", "evictions")
        }
        obs.reset(f"{name}.")

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        The factory runs under the cache lock: per key, at most one
        solve ever happens no matter how many threads race for it.
        """
        with self._lock:
            if key in self._store:
                obs.count(self._names["hits"])
                self._store.move_to_end(key)
                return self._store[key]
            obs.count(self._names["misses"])
            value = factory()
            self._insert(key, value)
            return value

    def _insert(self, key: Hashable, value: Any) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self._maxsize:
            self._store.popitem(last=False)
            obs.count(self._names["evictions"])

    def peek(self, key: Hashable) -> Tuple[bool, Any]:
        """``(present, value)`` without touching counters or LRU order."""
        with self._lock:
            if key in self._store:
                return True, self._store[key]
            return False, None

    def keys(self) -> List[Hashable]:
        """The resident keys, LRU-first, without touching counters.

        Diagnostic hook for key-completeness checks: two configurations
        that must not alias can assert they occupy *distinct* entries
        (see the capacity topology-key regression tests)."""
        with self._lock:
            return list(self._store.keys())

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        stats = self.stats()
        return (
            f"LRUSolveCache({self.name!r}, size={stats.size}/"
            f"{stats.maxsize}, hits={stats.hits}, misses={stats.misses})"
        )

    # ------------------------------------------------------------------
    # Accounting and administration
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters (they only move under
        the cache lock)."""
        with self._lock:
            return CacheStats(
                **obs.view(self._names),
                size=len(self._store),
                maxsize=self._maxsize,
            )

    def clear(self, *, reset_stats: bool = False) -> None:
        """Drop all entries (counters survive unless ``reset_stats``)."""
        with self._lock:
            self._store.clear()
            if reset_stats:
                obs.reset(f"{self.name}.")

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting LRU entries if shrinking."""
        if maxsize < 1:
            raise ConfigurationError(
                f"cache maxsize must be >= 1, got {maxsize}"
            )
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._store) > self._maxsize:
                self._store.popitem(last=False)
                obs.count(self._names["evictions"])

    # ------------------------------------------------------------------
    # Cross-process seeding (used by the parallel sweep runner)
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Tuple[Hashable, Any]]:
        """All entries, LRU-first, for shipping to worker processes."""
        with self._lock:
            return list(self._store.items())

    def seed(self, entries) -> None:
        """Insert precomputed ``(key, value)`` pairs without counting
        them as hits or misses (a seeded entry was solved elsewhere)."""
        with self._lock:
            for key, value in entries:
                self._insert(key, value)
