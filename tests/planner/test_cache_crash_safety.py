"""Crash-safety of the disk-backed PlanCache.

A bad byte on disk must cost a recompute — never an exception, never a
wrong plan: corrupt/truncated entries are quarantined into a sidecar
directory and reported as misses, and the format survives process
restarts.  Also the regression test for the eviction race between two
caches bounding one shared directory.
"""

import hashlib
import pickle
from pathlib import Path

import pytest

from repro import faultinject
from repro.api import PlanCache
from repro.planner.cache import _MAGIC, QUARANTINE_DIR


@pytest.fixture(autouse=True)
def disarm():
    faultinject.reset()
    yield
    faultinject.reset()


def entry_path(cache: PlanCache, key: str):
    return cache.directory / f"{key}.plan.pkl"


class TestChecksummedFormat:
    def test_round_trip_and_header_layout(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("k1", {"plan": "value"})
        blob = entry_path(cache, "k1").read_bytes()
        assert blob.startswith(_MAGIC)
        header_len = len(_MAGIC) + 65
        payload = blob[header_len:]
        digest = blob[len(_MAGIC):header_len - 1].decode("ascii")
        assert hashlib.sha256(payload).hexdigest() == digest
        # A fresh cache (a "restarted process") reads it back verified.
        assert PlanCache(directory=tmp_path).get("k1") == {"plan": "value"}

    def test_legacy_raw_pickle_still_readable(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        entry_path(cache, "old").write_bytes(pickle.dumps({"plan": "legacy"}))
        assert cache.get("old") == {"plan": "legacy"}
        assert cache.quarantined == 0


class TestCorruptionIsQuarantined:
    def read_misses(self, tmp_path, blob: bytes):
        """Plant ``blob`` as an entry, read it with a fresh cache."""
        writer = PlanCache(directory=tmp_path)
        entry_path(writer, "bad").write_bytes(blob)
        reader = PlanCache(directory=tmp_path)
        assert reader.get("bad") is None
        assert reader.quarantined == 1
        assert reader.misses == 1
        quarantine = tmp_path / QUARANTINE_DIR
        assert (quarantine / "bad.plan.pkl").exists()
        assert not entry_path(reader, "bad").exists()
        return reader

    def test_truncated_json_like_garbage(self, tmp_path):
        self.read_misses(tmp_path, b'{"half a json entry')

    def test_pure_garbage(self, tmp_path):
        self.read_misses(tmp_path, b"\x00\xff\x17garbage")

    def test_checksum_mismatch(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("bad", {"plan": "good"})
        blob = bytearray(entry_path(cache, "bad").read_bytes())
        blob[-1] ^= 0xFF  # one flipped payload byte
        self.read_misses(tmp_path, bytes(blob))

    def test_truncated_checksummed_entry(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("bad", {"plan": "good"})
        blob = entry_path(cache, "bad").read_bytes()
        self.read_misses(tmp_path, blob[: len(blob) // 2])

    def test_recompute_after_quarantine(self, tmp_path):
        reader = self.read_misses(tmp_path, b"junk")
        reader.put("bad", {"plan": "recomputed"})
        assert PlanCache(directory=tmp_path).get("bad") == {
            "plan": "recomputed"
        }

    def test_quarantine_survives_restart(self, tmp_path):
        self.read_misses(tmp_path, b"junk")
        fresh = PlanCache(directory=tmp_path)
        assert fresh.get("bad") is None
        assert fresh.quarantined == 0  # gone, a plain miss — not re-counted


class TestInjectedWriteFaults:
    def test_torn_write_is_caught_by_reader(self, tmp_path):
        faultinject.install("torn-cache-write:rate=1,limit=1")
        writer = PlanCache(directory=tmp_path)
        writer.put("torn", {"plan": "value"})
        # The writer keeps its in-memory copy (it did the work) ...
        assert writer.get("torn") == {"plan": "value"}
        # ... but what reached disk is truncated, and a reader sharing
        # the directory quarantines it instead of unpickling junk.
        reader = PlanCache(directory=tmp_path)
        assert reader.get("torn") is None
        assert reader.quarantined == 1

    def test_corrupt_entry_is_caught_by_reader(self, tmp_path):
        faultinject.install("corrupt-cache-entry:rate=1,limit=1")
        writer = PlanCache(directory=tmp_path)
        writer.put("rot", {"plan": "value"})
        reader = PlanCache(directory=tmp_path)
        assert reader.get("rot") is None
        assert reader.quarantined == 1

    def test_aux_entries_share_the_protection(self, tmp_path):
        faultinject.install("torn-cache-write:rate=1,limit=1")
        writer = PlanCache(directory=tmp_path)
        writer.put_aux("estimate", "e1", {"cost": 1.0})
        reader = PlanCache(directory=tmp_path)
        assert reader.get_aux("estimate", "e1") is None
        assert reader.quarantined == 1


class TestSharedDirectoryEvictionRace:
    def test_two_caches_bounding_one_directory(self, tmp_path):
        """Regression: racing evictors must tolerate vanished files.

        Two bounded caches over one directory each scan-and-unlink on
        write; before the ENOENT guards a sibling's unlink (or a stat
        on a vanished path) raised out of ``put``.  Interleave writes
        heavily and require both writers to finish, the directory to
        stay bounded, and fresh entries to remain readable.
        """
        a = PlanCache(directory=tmp_path, max_entries=3)
        b = PlanCache(directory=tmp_path, max_entries=3)
        for i in range(40):
            a.put(f"ka{i:03d}", {"plan": i})
            b.put(f"kb{i:03d}", {"plan": i})
            # Force a rescan each round: the race needs both writers
            # actually walking the shared directory, not their counts.
            a._disk_counts.clear()
            b._disk_counts.clear()
        survivors = list(tmp_path.glob("*.plan.pkl"))
        assert len(survivors) <= 2 * 3
        fresh = PlanCache(directory=tmp_path)
        assert fresh.get("kb039") == {"plan": 39}

    def test_file_vanishing_mid_scan_is_skipped(self, tmp_path, monkeypatch):
        """Deterministic ENOENT: a sibling unlinks between glob and stat."""
        cache = PlanCache(directory=tmp_path, max_entries=2)
        for i in range(4):
            cache.put(f"k{i}", {"plan": i})
        real_stat = Path.stat

        def sibling_unlinked(self, *args, **kwargs):
            if self.name == "k3.plan.pkl":
                raise FileNotFoundError(self)
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", sibling_unlinked)
        cache._disk_counts.clear()
        cache.put("k9", {"plan": 9})  # scans; must skip, not raise
        monkeypatch.undo()
        assert PlanCache(directory=tmp_path).get("k9") == {"plan": 9}

    def test_eviction_tolerates_scan_failure(self, tmp_path, monkeypatch):
        """A directory that vanishes mid-scan aborts eviction, not put."""
        cache = PlanCache(directory=tmp_path, max_entries=2)
        for i in range(3):
            cache.put(f"k{i}", {"plan": i})

        def directory_vanished(self, pattern):
            raise OSError("directory removed by a sibling")

        monkeypatch.setattr(Path, "glob", directory_vanished)
        cache._disk_counts.clear()
        cache.put("k9", {"plan": 9})  # eviction scan fails; put must not
        monkeypatch.undo()
        assert PlanCache(directory=tmp_path).get("k9") == {"plan": 9}
