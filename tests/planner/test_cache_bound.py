"""Regression tests: the disk-backed PlanCache must stay bounded.

Long-running service processes write whole-plan and aux entries on
every computed request; before ``max_entries`` the cache directory
grew without limit.
"""

import os

import pytest

from repro.api import PlanCache


def put_n(cache: PlanCache, n: int, *, start: int = 0) -> list[str]:
    keys = [f"{'k%04d' % i}" for i in range(start, start + n)]
    for key in keys:
        cache.put(key, {"plan": key})
    return keys


class TestMemoryBound:
    def test_unbounded_by_default(self):
        cache = PlanCache()
        put_n(cache, 50)
        assert len(cache) == 50
        assert cache.evictions == 0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_oldest_entry_evicted_first(self):
        cache = PlanCache(max_entries=3)
        keys = put_n(cache, 5)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        assert cache.get(keys[4]) == {"plan": keys[4]}

    def test_aux_kinds_bounded_separately(self):
        cache = PlanCache(max_entries=2)
        for i in range(4):
            cache.put_aux("estimate", f"e{i}", i)
            cache.put_aux("metrics", f"m{i}", i)
        # Two survivors per kind, not two overall.
        assert cache.get_aux("estimate", "e3") == 3
        assert cache.get_aux("estimate", "e2") == 2
        assert cache.get_aux("metrics", "m3") == 3
        assert cache.get_aux("estimate", "e0") is None
        assert cache.get_aux("metrics", "m0") is None

    def test_plan_bound_does_not_touch_aux(self):
        cache = PlanCache(max_entries=2)
        cache.put_aux("estimate", "keepme", 1)
        put_n(cache, 5)
        assert cache.get_aux("estimate", "keepme") == 1


class TestDiskBound:
    def test_disk_directory_stays_bounded(self, tmp_path):
        cache = PlanCache(tmp_path, max_entries=3)
        for i in range(8):
            cache.put(f"k{i}", i)
            # mtime must order the writes on coarse-clock filesystems.
            os.utime(
                cache._path(f"k{i}", "plan"), ns=(i * 1_000_000, i * 1_000_000)
            )
        files = sorted(p.name for p in tmp_path.glob("*.plan.pkl"))
        assert files == ["k5.plan.pkl", "k6.plan.pkl", "k7.plan.pkl"]

    def test_unbounded_disk_unchanged(self, tmp_path):
        cache = PlanCache(tmp_path)
        put_n(cache, 10)
        assert len(list(tmp_path.glob("*.plan.pkl"))) == 10

    def test_evicted_disk_entry_is_a_miss_for_fresh_process(self, tmp_path):
        writer = PlanCache(tmp_path, max_entries=2)
        for i in range(4):
            writer.put(f"k{i}", i)
            os.utime(
                writer._path(f"k{i}", "plan"),
                ns=(i * 1_000_000, i * 1_000_000),
            )
        reader = PlanCache(tmp_path)  # a fresh process: empty memory tier
        assert reader.get("k0") is None
        assert reader.get("k3") == 3

    def test_disk_aux_kinds_bounded_separately(self, tmp_path):
        cache = PlanCache(tmp_path, max_entries=2)
        for i in range(4):
            cache.put_aux("estimate", f"e{i}", i)
            cache.put_aux("metrics", f"m{i}", i)
        assert len(list(tmp_path.glob("*.estimate.pkl"))) == 2
        assert len(list(tmp_path.glob("*.metrics.pkl"))) == 2

    def test_read_only_process_memory_stays_bounded(self, tmp_path):
        """The service's disk tier never writes — reads alone must not
        grow a bounded cache's in-memory store without limit."""
        writer = PlanCache(tmp_path)
        put_n(writer, 20)
        reader = PlanCache(tmp_path, max_entries=4)
        for i in range(20):
            assert reader.get(f"{'k%04d' % i}") == {"plan": "k%04d" % i}
        assert len(reader) <= 4

    def test_long_running_writer_stays_bounded(self, tmp_path):
        """The service-lifetime property: thousands of writes, fixed
        directory size, newest entries always retrievable."""
        cache = PlanCache(tmp_path, max_entries=16)
        for i in range(200):
            cache.put(f"{i:04d}", i)
        assert len(list(tmp_path.glob("*.plan.pkl"))) <= 16
        assert len(cache) == 16
        assert cache.get("0199") == 199
