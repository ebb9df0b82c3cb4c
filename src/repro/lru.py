"""The bounded least-recently-used map behind every in-process cache.

Schedules, compiled graphs, probes, resident what-if graphs, plan-cache
entries and the service's hot tier are all pure functions of a small
key, so each is memoized in a fixed-capacity table that evicts the
least recently used entry.  This module is that table, once: a leaf
that imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any


class LRU:
    """Fixed-capacity map evicting the least recently used entry.

    A ``get`` hit and every ``put`` make their entry the most recent; a
    ``put`` beyond ``capacity`` evicts from the least recent end.
    ``None`` is never stored: ``get`` returns it for a miss.  Every
    operation holds the instance's own lock, so threads may share one.
    ``hits``/``misses``/``evictions`` count since creation or the last
    :meth:`clear`.  Values are handed out as stored; callers that may
    mutate one store or return a copy.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The stored value (refreshed to most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, within capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def values(self) -> list[Any]:
        """The stored values, least to most recently used (a snapshot)."""
        with self._lock:
            return list(self._entries.values())

    def clear(self, reset_counters: bool = True) -> None:
        """Drop every entry and, unless told not to, zero the counters."""
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self.hits = 0
                self.misses = 0
                self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Capacity, size and counters (the service's ``/stats`` ``lru``)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
