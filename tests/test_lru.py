"""The shared bounded LRU: capacity, eviction order, counters, threads."""

import sys
import threading

import pytest

from repro.lru import LRU


class TestBounds:
    def test_capacity_is_enforced(self):
        lru = LRU(capacity=3)
        for i in range(10):
            lru.put(f"k{i}", i)
        assert len(lru) == 3
        assert lru.evictions == 7

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRU(capacity=0)
        with pytest.raises(ValueError):
            LRU(capacity=-5)

    def test_put_existing_does_not_evict(self):
        lru = LRU(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 3)  # refresh, not insert
        assert len(lru) == 2
        assert lru.evictions == 0
        assert lru.get("a") == 3

    def test_capacity_read_on_every_put(self):
        lru = LRU(capacity=4)
        for i in range(4):
            lru.put(i, i)
        lru.capacity = 2
        lru.put(4, 4)
        assert lru.values() == [3, 4]
        assert lru.evictions == 3


class TestEvictionOrder:
    def test_least_recently_used_goes_first(self):
        lru = LRU(capacity=3)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert lru.get("a") == 1  # refresh a: b is now least recent
        lru.put("d", 4)
        assert lru.values() == [3, 1, 4]
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert lru.get("d") == 4

    def test_put_refreshes_recency(self):
        lru = LRU(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # a most recent; b evicts next
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 10

    def test_values_ordered_least_to_most_recent(self):
        lru = LRU(capacity=4)
        for key in ("a", "b", "c"):
            lru.put(key, key)
        lru.get("a")
        assert lru.values() == ["b", "c", "a"]

    def test_any_hashable_key(self):
        lru = LRU(capacity=2)
        lru.put(("method", 4, (1.0, 2.0)), "tuple")
        assert lru.get(("method", 4, (1.0, 2.0))) == "tuple"


class TestCounters:
    def test_hit_miss_eviction_counters(self):
        lru = LRU(capacity=1)
        assert lru.get("x") is None
        lru.put("x", 1)
        assert lru.get("x") == 1
        lru.put("y", 2)  # evicts x
        assert lru.get("x") is None
        stats = lru.stats()
        assert stats == {
            "capacity": 1,
            "size": 1,
            "hits": 1,
            "misses": 2,
            "evictions": 1,
        }

    def test_values_do_not_touch_counters_or_recency(self):
        lru = LRU(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.values() == [1, 2]
        lru.put("c", 3)  # a is still least recent despite the read
        assert lru.values() == [2, 3]
        assert lru.stats()["hits"] + lru.stats()["misses"] == 0

    def test_clear_resets_everything(self):
        lru = LRU(capacity=2)
        lru.put("a", 1)
        lru.get("a")
        lru.get("zz")
        lru.put("b", 2)
        lru.put("c", 3)
        lru.clear()
        assert len(lru) == 0
        assert lru.stats() == {
            "capacity": 2,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }

    def test_clear_can_keep_the_counters(self):
        lru = LRU(capacity=1)
        lru.put("a", 1)
        lru.get("a")
        lru.get("zz")
        lru.put("b", 2)
        lru.clear(reset_counters=False)
        assert lru.stats() == {
            "capacity": 1,
            "size": 0,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
        }



def test_threads_share_one_lru():
    """Concurrent get/put keep the bound and lose no counted lookup.

    Capacity 1 makes every miss evict, so without the lock a ``get``
    whose key another thread evicts between the lookup and the refresh
    raises ``KeyError``.
    """
    lru = LRU(capacity=1)
    threads_n, rounds, keys = 16, 10000, 3
    barrier = threading.Barrier(threads_n)
    errors = []

    def work(seed: int) -> None:
        barrier.wait(timeout=10)
        try:
            for i in range(rounds):
                key = (seed * 7 + i) % keys
                if lru.get(key) is None:
                    lru.put(key, i + 1)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = lru.stats()
    assert len(lru) <= lru.capacity
    assert stats["size"] == len(lru)
    assert stats["hits"] + stats["misses"] == threads_n * rounds
    assert stats["evictions"] <= stats["misses"] - len(lru)
