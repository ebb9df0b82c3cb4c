"""Regression tests: the disk-backed PlanCache must stay bounded.

Long-running service processes write whole-plan and aux entries on
every computed request; before ``max_entries`` the cache directory
grew without limit.
"""

import os

import pytest

from repro.api import PlanCache
from repro.planner.cache import DEFAULT_MAX_ENTRIES


def put_n(cache: PlanCache, n: int, *, start: int = 0) -> list[str]:
    keys = [f"{'k%04d' % i}" for i in range(start, start + n)]
    for key in keys:
        cache.put(key, {"plan": key})
    return keys


class TestMemoryBound:
    def test_bounded_by_default(self):
        cache = PlanCache()
        assert cache.max_entries == DEFAULT_MAX_ENTRIES == 1024
        keys = put_n(cache, DEFAULT_MAX_ENTRIES + 2)
        assert len(cache) == DEFAULT_MAX_ENTRIES
        assert cache.evictions == 2
        assert cache.get(keys[1]) is None
        assert cache.get(keys[2]) == {"plan": keys[2]}

    def test_eviction_pops_the_oldest_key_of_its_kind(self, bound):
        bound(3)
        cache = PlanCache()
        for i in range(3):
            cache.put_aux("estimate", f"e{i}", i)
        keys = put_n(cache, 3)
        cache.put_aux("estimate", "e3", 3)
        assert cache._memory["estimate"].values() == [1, 2, 3]
        assert cache._memory["plan"].values() == [{"plan": key} for key in keys]
        assert cache.evictions == 1

    def test_hit_refreshes_its_entry(self, bound):
        bound(3)
        cache = PlanCache()
        keys = put_n(cache, 3)
        cache.put_aux("metrics", "m0", 0)
        cache.put_aux("metrics", "m1", 1)
        assert cache.get(keys[0]) == {"plan": keys[0]}
        assert cache.get_aux("metrics", "m0") == 0
        put_n(cache, 1, start=3)
        cache.put_aux("metrics", "m2", 2)
        cache.put_aux("metrics", "m3", 3)
        # The least recently used entry goes, not the first stored.
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == {"plan": keys[0]}
        assert cache.get_aux("metrics", "m1") is None
        assert cache.get_aux("metrics", "m0") == 0

    def test_overwrite_refreshes_its_entry(self, bound):
        bound(2)
        cache = PlanCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)
        cache.put("c", 4)
        assert cache.get("b") is None
        assert cache.get("a") == 3

    def test_max_entries_validation(self, bound):
        bound(0)
        with pytest.raises(ValueError):
            PlanCache().put("a", 1)

    def test_oldest_entry_evicted_first(self, bound):
        bound(3)
        cache = PlanCache()
        keys = put_n(cache, 5)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        assert cache.get(keys[4]) == {"plan": keys[4]}

    def test_aux_kinds_bounded_separately(self, bound):
        bound(2)
        cache = PlanCache()
        for i in range(4):
            cache.put_aux("estimate", f"e{i}", i)
            cache.put_aux("metrics", f"m{i}", i)
        # Two survivors per kind, not two overall.
        assert cache.get_aux("estimate", "e3") == 3
        assert cache.get_aux("estimate", "e2") == 2
        assert cache.get_aux("metrics", "m3") == 3
        assert cache.get_aux("estimate", "e0") is None
        assert cache.get_aux("metrics", "m0") is None

    def test_plan_bound_does_not_touch_aux(self, bound):
        bound(2)
        cache = PlanCache()
        cache.put_aux("estimate", "keepme", 1)
        put_n(cache, 5)
        assert cache.get_aux("estimate", "keepme") == 1


class TestDiskBound:
    def test_disk_directory_stays_bounded(self, tmp_path, bound):
        bound(3)
        cache = PlanCache(tmp_path)
        for i in range(8):
            cache.put(f"k{i}", i)
            # mtime must order the writes on coarse-clock filesystems.
            os.utime(
                cache._path(f"k{i}", "plan"), ns=(i * 1_000_000, i * 1_000_000)
            )
        files = sorted(p.name for p in tmp_path.glob("*.plan.pkl"))
        assert files == ["k5.plan.pkl", "k6.plan.pkl", "k7.plan.pkl"]

    def test_full_directory_is_trimmed_to_seven_eighths(
        self, tmp_path, bound, monkeypatch
    ):
        """Past the bound the oldest files go down to seven eighths of
        it, so a writer at the bound lists the directory once per
        ``max_entries // 8`` writes, not on every write."""
        bound(16)
        cache = PlanCache(tmp_path)
        for i in range(17):
            cache.put(f"k{i:02d}", i)
            os.utime(cache._path(f"k{i:02d}"), ns=(i * 1_000_000, i * 1_000_000))
        files = sorted(p.name for p in tmp_path.glob("*.plan.pkl"))
        assert files == [f"k{i:02d}.plan.pkl" for i in range(3, 17)]
        listings = []
        real_scandir = os.scandir
        monkeypatch.setattr(
            os, "scandir", lambda path: listings.append(path) or real_scandir(path)
        )
        put_n(cache, 2)
        assert listings == [], "14 + 2 files are within the bound"
        put_n(cache, 1, start=2)
        assert listings == [tmp_path]
        assert len(list(tmp_path.glob("*.plan.pkl"))) == 14

    def test_unbounded_disk_unchanged(self, tmp_path):
        cache = PlanCache(tmp_path)
        put_n(cache, 10)
        assert len(list(tmp_path.glob("*.plan.pkl"))) == 10

    def test_evicted_disk_entry_is_a_miss_for_fresh_process(self, tmp_path, bound):
        bound(2)
        writer = PlanCache(tmp_path)
        for i in range(4):
            writer.put(f"k{i}", i)
            os.utime(
                writer._path(f"k{i}", "plan"),
                ns=(i * 1_000_000, i * 1_000_000),
            )
        reader = PlanCache(tmp_path)  # a fresh process: empty memory tier
        assert reader.get("k0") is None
        assert reader.get("k3") == 3

    def test_disk_aux_kinds_bounded_separately(self, tmp_path, bound):
        bound(2)
        cache = PlanCache(tmp_path)
        for i in range(4):
            cache.put_aux("estimate", f"e{i}", i)
            cache.put_aux("metrics", f"m{i}", i)
        assert len(list(tmp_path.glob("*.estimate.pkl"))) == 2
        assert len(list(tmp_path.glob("*.metrics.pkl"))) == 2

    def test_read_only_process_memory_stays_bounded(self, tmp_path, bound):
        """The service's disk tier never writes — reads alone must not
        grow a bounded cache's in-memory store without limit."""
        writer = PlanCache(tmp_path)
        put_n(writer, 20)
        bound(4)
        reader = PlanCache(tmp_path)
        for i in range(20):
            assert reader.get(f"{'k%04d' % i}") == {"plan": "k%04d" % i}
        assert len(reader) <= 4

    def test_long_running_writer_stays_bounded(self, tmp_path, bound):
        """The service-lifetime property: thousands of writes, fixed
        directory size, newest entries always retrievable."""
        bound(16)
        cache = PlanCache(tmp_path)
        for i in range(200):
            cache.put(f"{i:04d}", i)
        assert len(list(tmp_path.glob("*.plan.pkl"))) <= 16
        assert len(cache) == 16
        assert cache.get("0199") == 199


SMALL = ["--devices", "4", "--seq", "1024", "--microbatches", "8"]
#: Each CLI verb taking ``--cache-dir``, as the invocations one test runs.
CACHE_DIR_VERBS = {
    "plan-point": [["plan", *SMALL, "--vocab", "32k"]],
    "plan-grid": [["plan", *SMALL, "--vocab", "32k", "64k", "--executor", "serial"]],
    "whatif": [
        ["whatif", *SMALL, "--vocab", "32k", "--factor", str(factor)]
        for factor in (1.2, 1.5, 2.0)
    ],
    "optimize": [
        ["optimize", *SMALL, "--vocab", vocab, "--budget", "2"]
        for vocab in ("32k", "64k", "128k")
    ],
}


@pytest.mark.parametrize("verb", sorted(CACHE_DIR_VERBS))
def test_cli_cache_dir_bounded_per_kind(verb, tmp_path, bound, capsys):
    """Every CLI verb that takes ``--cache-dir`` leaves a directory
    bounded per entry kind, at the one default bound every
    :class:`PlanCache` has (shrunk to 2 here so a few plans exceed it)."""
    from repro.harness.cli import main

    bound(2)
    for argv in CACHE_DIR_VERBS[verb]:
        main([*argv, "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    kinds: dict[str, int] = {}
    for path in tmp_path.glob("*.pkl"):
        kind = path.name.split(".")[1]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds, "the verb wrote no cache entries"
    assert max(kinds.values()) <= 2, kinds
