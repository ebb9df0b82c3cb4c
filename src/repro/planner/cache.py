"""Plan-result caching keyed on a configuration digest.

A plan is a pure function of its inputs (model shape, parallel config,
constraints, hardware, memory model, the *content digest* of the active
cost-model profile and the planner version), so the cache key is a
SHA-256 over a canonical JSON rendering of all of them.  Carrying the
profile's content digest — not just its name — means a re-fitted
profile under the same name invalidates every dependent plan, estimate
and probe entry instead of aliasing stale prices
(see :meth:`repro.costmodel.calibrate.HardwareProfile.digest`).
Dataclasses are serialized field by field; anything non-JSON falls back
to ``repr``, which is stable for the frozen dataclasses used here.
Each frozen config object is rendered once per lifetime (see
:func:`config_digest`), so warm re-ranks and what-ifs that key a dozen
entries on the same model/parallel/hardware/memory objects do not
re-serialize them for every key.

The default cache is in-memory and process-local.  Passing a
``directory`` additionally persists entries as pickle files named by
digest, so repeated CLI invocations and sweep workers can share
results across processes.

Besides whole-plan entries the cache stores *auxiliary* namespaced
entries (:meth:`PlanCache.get_aux` / :meth:`PlanCache.put_aux`): the
planner keys per-method analytic estimates and simulated metrics on a
**budget-independent** digest that includes the schedule's structural
signature, so neighbouring sweep grid points — same structure,
different memory budget or runtime binding — skip analytic pricing and
simulation entirely and only re-rank.

Disk entries are **crash-safe**: every file is written to a temp path
and atomically renamed into place, and carries a header with the
SHA-256 of its pickle payload, verified on every read.  A corrupt or
truncated entry (a torn write from a crashed process, bit rot, a
concurrent writer's partial state) is *quarantined* — moved into a
``quarantine/`` sidecar directory for post-mortem — and reported as a
miss, so callers recompute instead of crashing or deserializing
garbage.  Pre-checksum files (no header) are still read as legacy raw
pickles and quarantined on any load failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import weakref
from pathlib import Path
from typing import Any

from repro import faultinject

#: Header magic of checksummed disk entries.  Files not starting with
#: this are legacy raw pickles (still readable, not verifiable).
_MAGIC = b"RPLC1\n"
#: Name of the sidecar directory corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"


def _canonical(obj: Any) -> Any:
    """Render ``obj`` as JSON-serializable data, deterministically.

    Dataclasses exposing an ``as_dict()`` hook (``ModelConfig``,
    ``ParallelConfig``) are serialized through it; other dataclasses
    field by field.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        as_dict = getattr(obj, "as_dict", None)
        if callable(as_dict):
            fields = as_dict()
        else:
            fields = {
                field.name: getattr(obj, field.name)
                for field in dataclasses.fields(obj)
            }
        rendered = {name: _canonical(value) for name, value in fields.items()}
        rendered["__type__"] = type(obj).__name__
        return rendered
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {
            str(key): _canonical(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


#: ``json.dumps(..., sort_keys=True)`` without rebuilding an encoder
#: per call; encoding is stateless, so one instance serves every thread.
_ENCODER = json.JSONEncoder(sort_keys=True)
#: The encodings ``json.dumps`` gives scalars of exactly these types,
#: without its per-call encoder setup (floats keep the encoder: it owns
#: the NaN/Infinity spelling).
_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class _Fragment(weakref.ref):
    """A weak reference to a digested config, carrying its rendering."""

    __slots__ = ("key", "text")


#: Canonical JSON of each frozen config object digested so far, keyed
#: by ``id``.  The weak reference proves on every hit that the entry
#: still belongs to the object at that address, and its callback drops
#: the entry when the object dies, so the table holds at most one
#: fragment per live config object.
_FRAGMENTS: dict[int, _Fragment] = {}


def _forget(ref: _Fragment, table: dict = _FRAGMENTS) -> None:
    """Weak-reference callback: drop a dead object's fragment.

    ``table`` is bound at definition, so callbacks that fire while the
    interpreter tears this module down still find it.
    """
    if table.get(ref.key) is ref:
        table.pop(ref.key, None)


def _immutable(value: Any) -> bool:
    """Whether ``value``'s canonical rendering can never change."""
    if value is None or isinstance(value, (str, int, float)):
        return True
    if isinstance(value, tuple):
        return all(_immutable(item) for item in value)
    return _frozen_config(value)


def _frozen_config(obj: Any) -> bool:
    """A frozen dataclass instance whose fields are all immutable."""
    params = getattr(type(obj), "__dataclass_params__", None)
    return (
        params is not None
        and params.frozen
        and all(_immutable(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    )


def _fragment(part: Any) -> str:
    """Canonical JSON of one digest part, rendered once per frozen config."""
    scalar = _SCALARS.get(type(part))
    if scalar is not None:
        return scalar(part)
    key = id(part)
    ref = _FRAGMENTS.get(key)
    if ref is not None and ref() is part:
        return ref.text
    text = _ENCODER.encode(_canonical(part))
    if _frozen_config(part):
        try:
            ref = _Fragment(part, _forget)
        except TypeError:  # slotted dataclass: no weak references
            return text
        ref.key = key
        ref.text = text
        _FRAGMENTS[key] = ref
    return text


def config_digest(*parts: Any) -> str:
    """SHA-256 hex digest of an arbitrary tuple of config objects.

    The payload is ``json.dumps([_canonical(p) for p in parts],
    sort_keys=True)``, assembled as the ``", "``-join of each part's own
    encoding — the same bytes ``json.dumps`` produces for the list.
    Invariants of the per-object memo behind it:

    * **Byte-identical digests.**  A memoized fragment is exactly the
      encoding the part would get today; equal-but-differently-typed
      configs (``memory_budget_gib=40`` vs ``40.0``) compare and hash
      equal, so the memo is keyed on object identity, never equality,
      and they keep distinct digests.
    * **Frozen, immutable configs only.**  Only frozen dataclass
      instances whose fields are, recursively, ``None``/``str``/
      numbers, tuples of those, or such frozen dataclasses are
      memoized (their ``as_dict`` hook, if any, must be a pure function
      of the fields, as every config type's is).  Primitives, lists,
      dicts, mutable dataclasses and anything rendered through ``repr``
      are rendered on every call.
    * **Lifetime-bound.**  An entry lives exactly as long as its
      object: a weak reference both evicts it when the object dies and
      proves on every hit that the ``id`` was not reused.  No size knob
      is needed; the table holds one fragment per live digested config.
    * **Never stored on the instance, never pickled.**  The memo is a
      module-level table, so pickling, copying or comparing a config is
      unaffected and a copy is rendered afresh.
    * **Thread-safe.**  Every table operation is a single dict
      operation; racing renders of one object store identical text.
    """
    payload = "[" + ", ".join(map(_fragment, parts)) + "]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlanCache:
    """Digest-keyed store of :class:`~repro.planner.planner.RankedPlans`.

    Hits return the stored object itself (plans are treated as
    immutable once ranked).  ``hits``/``misses`` counters make cache
    behaviour observable in tests and sweeps.  ``max_entries`` bounds
    each entry kind (whole-plan and every aux namespace separately),
    evicting oldest-first in memory and on disk.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_entries: int | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._store: dict[str, Any] = {}
        self._aux_store: dict[str, Any] = {}
        self.directory = Path(directory) if directory is not None else None
        #: Per-kind entry bound (``None`` = unbounded): whole-plan
        #: entries and each auxiliary kind (``estimate``, ``metrics``,
        #: ``robust``) are capped separately, oldest entry evicted
        #: first, both in memory and on disk.  Long-running processes
        #: (the planning service) set this so the cache directory
        #: cannot grow without limit.
        self.max_entries = max_entries
        #: Per-kind estimate of this writer's disk file count (files
        #: seen at the last directory scan plus writes since): lets
        #: writes skip the O(entries) eviction scan while safely under
        #: the bound.
        self._disk_counts: dict[str, int] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.aux_hits = 0
        self.aux_misses = 0
        self.evictions = 0
        #: Corrupt/truncated disk entries moved aside (never served).
        self.quarantined = 0

    def __len__(self) -> int:
        """Number of whole-plan entries (aux entries are not counted)."""
        return len(self._store)

    def _path(self, key: str, kind: str = "plan") -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.{kind}.pkl"

    @property
    def quarantine_directory(self) -> Path | None:
        """Where corrupt entries are moved (``None`` without a disk dir)."""
        if self.directory is None:
            return None
        return self.directory / QUARANTINE_DIR

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt/truncated entry aside instead of serving it.

        The file lands in ``quarantine/`` next to the cache (same
        filesystem, so the move is an atomic rename) for post-mortem;
        a sibling process that already removed or re-wrote the path is
        fine — the goal is only that *this* reader never trusts it.
        """
        target_dir = self.quarantine_directory
        assert target_dir is not None
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            # Renamed/removed underneath us, or the sidecar is not
            # writable: fall back to deleting so the bad entry cannot
            # be re-read forever.
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1

    def _read_entry(self, path: Path) -> Any | None:
        """Load one disk entry, verifying its checksum header.

        Returns ``None`` (a miss) when the file is absent; quarantines
        and returns ``None`` when it is present but corrupt, truncated
        or fails to unpickle — the one contract the service's chaos
        suite leans on: a bad byte on disk costs a recompute, never an
        exception and never a wrong plan.
        """
        try:
            blob = path.read_bytes()
        except OSError:
            return None  # missing (or unreadable): a plain miss
        if blob.startswith(_MAGIC):
            header_len = len(_MAGIC) + 65  # 64 hex chars + newline
            header = blob[len(_MAGIC):header_len]
            payload = blob[header_len:]
            if (
                len(blob) < header_len
                or not header.endswith(b"\n")
                or hashlib.sha256(payload).hexdigest().encode("ascii")
                != header[:-1]
            ):
                self._quarantine(path)
                return None
        else:
            payload = blob  # legacy pre-checksum entry
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any garbage must quarantine
            self._quarantine(path)
            return None

    def _fetch(
        self, store: dict[str, Any], store_key: str, key: str, kind: str
    ) -> Any | None:
        """Shared lookup: in-memory first, then the disk file (if any)."""
        if store_key in store:
            return store[store_key]
        if self.directory is not None:
            value = self._read_entry(self._path(key, kind))
            if value is not None:
                store[store_key] = value
                if self.max_entries is not None:
                    # Reads must not grow a bounded cache either: a
                    # read-mostly process (the service's disk tier)
                    # would otherwise accumulate every digest it ever
                    # loaded.
                    prefix = "" if store is self._store else f"{kind}:"
                    self._evict_memory(store, prefix)
                return value
        return None

    def _write(
        self, store: dict[str, Any], store_key: str, key: str, kind: str,
        value: Any,
    ) -> None:
        """Shared store: in-memory plus an atomic disk write (if any).

        Disk writes go to a temp file first and are renamed into place,
        so concurrent readers of a shared directory never observe a
        half-written pickle; the checksum header makes even a torn
        *rename target* (a crashed writer, injected via the
        ``torn-cache-write`` fault site) detectable on read.
        """
        store[store_key] = value
        if self.directory is not None:
            path = self._path(key, kind)
            temp = path.with_suffix(f".tmp.{os.getpid()}")
            payload = pickle.dumps(value)
            blob = (
                _MAGIC
                + hashlib.sha256(payload).hexdigest().encode("ascii")
                + b"\n"
                + payload
            )
            injector = faultinject.get_injector()
            if injector and injector.should_fire("torn-cache-write"):
                # Simulate a writer that died mid-write: the entry on
                # disk is truncated.  This process keeps its in-memory
                # value (it did compute the result); only readers of
                # the shared directory see the tear — and the checksum
                # sends them to recompute instead of unpickling junk.
                blob = blob[: max(len(_MAGIC), len(blob) // 2)]
            temp.write_bytes(blob)
            os.replace(temp, path)
            if injector and injector.should_fire("corrupt-cache-entry"):
                # Flip one payload byte in place after the rename —
                # bit rot / a hostile write the next read must catch.
                try:
                    path.write_bytes(
                        faultinject.corrupt_bytes(
                            blob, seed=len(payload)
                        )
                    )
                except OSError:
                    pass
            # Unknown kinds stay unknown so the next _evict scans and
            # establishes the real count (overwrites may overcount; the
            # error is in the safe direction — an extra scan).
            if self.max_entries is not None and kind in self._disk_counts:
                self._disk_counts[kind] += 1
        if self.max_entries is not None:
            self._evict(store, kind)

    def _evict_memory(self, store: dict[str, Any], prefix: str) -> None:
        """Drop oldest in-memory entries with ``prefix`` beyond the bound."""
        matching = [key for key in store if key.startswith(prefix)]
        for key in matching[: max(0, len(matching) - self.max_entries)]:
            del store[key]
            self.evictions += 1

    def _evict(self, store: dict[str, Any], kind: str) -> None:
        """Drop oldest entries of one ``kind`` beyond ``max_entries``.

        In-memory stores evict in insertion order (dicts preserve it);
        the disk directory evicts the same kind's oldest files by
        modification time, so a long-running writer keeps the directory
        bounded even across restarts (ties broken by name for
        determinism).  The directory is only scanned once this writer's
        running count for the kind could exceed the bound — safely
        under it, a write costs no extra syscalls.  Concurrent writers
        may race an unlink; a file already removed by a sibling is
        simply skipped, and each writer's own bound keeps a shared
        directory bounded regardless.
        """
        prefix = "" if store is self._store else f"{kind}:"
        self._evict_memory(store, prefix)
        if self.directory is None:
            return
        count = self._disk_counts.get(kind)
        if count is not None and count <= self.max_entries:
            return
        stamped = []
        try:
            # Two processes bounding one directory race each other
            # freely: every step of the scan-and-unlink below must
            # tolerate a sibling having removed the file (ENOENT) — or
            # the directory itself — between syscalls.
            for path in self.directory.glob(f"*.{kind}.pkl"):
                try:
                    stamped.append((path.stat().st_mtime_ns, path.name, path))
                except OSError:
                    continue
        except OSError:
            return
        stamped.sort()
        for _, _, path in stamped[: max(0, len(stamped) - self.max_entries)]:
            try:
                path.unlink()
            except OSError:
                pass
        self._disk_counts[kind] = min(len(stamped), self.max_entries)

    def get(self, key: str) -> Any | None:
        """Stored plans for ``key``, or ``None`` (counts hit/miss)."""
        value = self._fetch(self._store, key, key, "plan")
        if value is not None:
            self.hits += 1
        else:
            self.misses += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (and on disk when configured)."""
        self._write(self._store, key, key, "plan", value)

    def get_aux(self, kind: str, key: str) -> Any | None:
        """Namespaced auxiliary entry (estimate, metrics, …) or ``None``.

        Auxiliary entries share the digest/disk machinery of whole-plan
        entries but live in their own ``kind`` namespace (disk files are
        suffixed ``.{kind}.pkl``), with separate ``aux_hits`` /
        ``aux_misses`` counters, and do not count towards ``len()``.
        """
        value = self._fetch(self._aux_store, f"{kind}:{key}", key, kind)
        if value is not None:
            self.aux_hits += 1
        else:
            self.aux_misses += 1
        return value

    def put_aux(self, kind: str, key: str, value: Any) -> None:
        """Store an auxiliary entry under (kind, key)."""
        self._write(self._aux_store, f"{kind}:{key}", key, kind, value)

    def clear(self) -> None:
        """Drop all in-memory entries (disk files are left alone)."""
        self._store.clear()
        self._aux_store.clear()
        self._disk_counts.clear()
        self.hits = 0
        self.misses = 0
        self.aux_hits = 0
        self.aux_misses = 0
        self.evictions = 0
        self.quarantined = 0
