"""Out-of-core sharded corpus store: memory-mapped zero-copy slices.

The per-drive ``.npz`` entries of :class:`~repro.simulate.cache.DriveCache`
made warm runs skip *simulation*, but every use still decompressed and
materialised a whole drive — a full-corpus scan paid RAM for every tick
of every drive, and ``REPRO_BENCH_SCALE=full`` corpora were approaching
what one machine can hold. :class:`CorpusStore` consolidates drives
into *sharded, uncompressed, memory-mappable* corpus files:

* one arrays blob per shard (``shard-NNNNNN.bin`` — the packed
  :data:`~repro.simulate.columnar.ARRAY_KEYS` arrays of many drives,
  concatenated with 64-byte alignment), plus
* one JSON index per shard (``shard-NNNNNN.json`` — byte offsets,
  dtypes, and shapes per drive per array, and the shard's committed
  extent), committed atomically through
  :func:`~repro.simulate.cache.atomic_publish`.

:meth:`CorpusStore.open_slice` returns a
:class:`~repro.simulate.columnar.ColumnarLog` whose arrays are
read-only plain ``ndarray`` views over the shard's ``np.memmap``: no
decompression, no copy, no whole-log materialisation — a consumer that
scans only the handover columns faults in only those pages. The views
keep the mapping alive on their own, so they survive the store (or even
the process's last store handle) going away.

**Appends are resumable and exactly-once.** ``append`` writes the
drive's payload to the tail of the current shard blob (fsync), then
publishes the updated shard index atomically. A crash between the two
leaves unreferenced bytes at the tail, which the next append truncates
away; a crash before either leaves nothing. Re-appending a present
``drive_id`` is a counted no-op — which is exactly what makes
``run_drives``-style generation resumable: kill a corpus build at drive
k of n, rerun, and only the n−k missing drives simulate.

**Corruption degrades to misses**, mirroring the self-healing cache
semantics: a shard whose blob is shorter than its index's committed
extent (or whose index fails to parse, or references bytes past the
committed extent) is *quarantined* — both files renamed ``*.corrupt``,
its drives become misses — while a shard written by a different
``FORMAT_VERSION`` is skipped as stale, not corrupt. A failed append
(``OSError``, injected ``cache_write_oserror``) is a counted no-op;
the drive simply stays missing.

Environment knobs (:mod:`repro.settings`): ``REPRO_CORPUS_DIR`` is the
store root. When set, a default-constructed
:class:`~repro.simulate.cache.DriveCache` attaches the store and
delegates to it (see :meth:`CorpusStore.from_env`); unset, explicit
construction defaults to ``<cache root>/corpus``. ``REPRO_NO_CACHE=1``
disables the store like every other cache layer. Shards roll over at
``shard_mb`` (default 64 MiB).

The store is single-writer, many-reader: generation publishes from one
parent process (``run_drives``' supervised ``on_result`` hook), while
any number of processes may ``open_slice`` concurrently. Workers never
receive corpora over IPC: :class:`CorpusView` parks only
``(store_path, drive_ids)`` — tens of bytes under pickle — and each
worker opens its memmaps lazily, on the fork *and* spawn paths alike.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import settings
from repro.net.bearer import BearerMode
from repro.simulate.columnar import ARRAY_KEYS, ColumnarLog
from repro.simulate.serialization import FORMAT_VERSION

#: Per-array alignment inside a shard blob; keeps every memmap view on
#: a cache-line boundary regardless of the preceding arrays' dtypes.
_ALIGN = 64


def _default_root() -> Path:
    return Path(
        settings.get("REPRO_CORPUS_DIR")
        or Path(settings.get("REPRO_CACHE_DIR")) / "corpus"
    )


def _encode_payload(clog: ColumnarLog) -> tuple[bytes, dict]:
    """The drive's arrays as one aligned byte string + its index entry."""
    chunks: list[bytes] = []
    arrays: dict[str, dict] = {}
    pos = 0
    for key in ARRAY_KEYS:
        array = np.ascontiguousarray(clog.arrays[key])
        data = array.tobytes()
        arrays[key] = {
            "offset": pos,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
        chunks.append(data)
        pos += len(data)
        pad = (-pos) % _ALIGN
        if pad:
            chunks.append(b"\0" * pad)
            pos += pad
    entry = {
        "carrier": clog.carrier,
        "bearer": "" if clog.bearer is None else clog.bearer.name,
        "scenario": clog.scenario,
        "nbytes": pos,
        "arrays": arrays,
    }
    return b"".join(chunks), entry


class CorpusStore:
    """Sharded, memory-mapped, append-only corpus of columnar drives."""

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        shard_mb: float = 64.0,
        enabled: bool | None = None,
    ):
        if enabled is None:
            enabled = not settings.get("REPRO_NO_CACHE")
        self.root = Path(root) if root is not None else _default_root()
        self.enabled = enabled
        self.shard_limit = max(1, int(shard_mb * 1024 * 1024))
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self.duplicates = 0
        self.put_failures = 0
        self.quarantined = 0
        self.stale_shards = 0
        #: drive_id -> (shard name, index entry with absolute "offset").
        self._index: dict[str, tuple[str, dict]] = {}
        #: shard name -> committed byte extent.
        self._shards: dict[str, int] = {}
        self._next_shard = 0
        self._mmaps: dict[tuple[str, int], np.memmap] = {}
        if self.enabled:
            self.refresh()

    @classmethod
    def from_env(cls) -> "CorpusStore | None":
        """The store named by ``REPRO_CORPUS_DIR``, or None when unset."""
        if not settings.get("REPRO_CORPUS_DIR"):
            return None
        return cls()

    # ------------------------------------------------------------------
    # Index loading, validation, and quarantine
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """(Re)build the in-memory index from the on-disk shard set."""
        self._index.clear()
        self._shards.clear()
        self._next_shard = 0
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("shard-*.bin*")) + sorted(
            self.root.glob("shard-*.json*")
        ):
            # Never reuse a shard number, even a quarantined one.
            stem = path.name.split(".")[0]
            try:
                number = int(stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            self._next_shard = max(self._next_shard, number + 1)
        for index_path in sorted(self.root.glob("shard-*.json")):
            shard = index_path.name[: -len(".json")]
            try:
                meta = json.loads(index_path.read_text())
            except (OSError, ValueError):
                self._quarantine(shard)
                continue
            if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
                # A shard written by other code is stale, not corrupt:
                # skip it (its drives read as misses) but leave it alone.
                self.stale_shards += 1
                continue
            if not self._validate(shard, meta):
                self._quarantine(shard)
                continue
            committed = int(meta["committed_bytes"])
            self._shards[shard] = committed
            for drive_id, entry in meta["drives"].items():
                self._index.setdefault(drive_id, (shard, entry))

    def _validate(self, shard: str, meta: dict) -> bool:
        """True when the shard's blob covers everything its index claims."""
        try:
            committed = int(meta["committed_bytes"])
            drives = meta["drives"]
            blob_size = (self.root / f"{shard}.bin").stat().st_size
        except (KeyError, TypeError, ValueError, OSError):
            return False
        if blob_size < committed:
            return False  # truncated blob: index promises bytes it lost
        for entry in drives.values():
            try:
                if int(entry["offset"]) + int(entry["nbytes"]) > committed:
                    return False  # index/shard mismatch
                if set(entry["arrays"]) != set(ARRAY_KEYS):
                    return False
            except (KeyError, TypeError, ValueError):
                return False
        return True

    def _quarantine(self, shard: str) -> None:
        self.quarantined += 1
        for suffix in (".json", ".bin"):
            path = self.root / f"{shard}{suffix}"
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Reads: zero-copy slices
    # ------------------------------------------------------------------

    def __contains__(self, drive_id: str) -> bool:
        return drive_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def drive_ids(self) -> list[str]:
        return list(self._index)

    def _mmap(self, shard: str) -> np.memmap:
        committed = self._shards[shard]
        key = (shard, committed)
        cached = self._mmaps.get(key)
        if cached is None:
            cached = np.memmap(
                self.root / f"{shard}.bin",
                dtype=np.uint8,
                mode="r",
                shape=(committed,),
            )
            self._mmaps[key] = cached
        return cached

    def open_slice(self, drive_id: str) -> ColumnarLog | None:
        """The drive's :class:`ColumnarLog`, arrays as read-only views.

        Returns None (a counted miss) when the drive is absent or the
        shard is transiently unreadable. The returned arrays are views
        over the shard mapping — only the pages a consumer touches are
        ever faulted in, and the views stay valid after the store
        object is gone. They are cut from a plain ``ndarray`` view of
        the ``np.memmap``, not from the memmap itself: every view
        operation on the memmap subclass runs its
        ``__array_finalize__``, a cost each open and then each analysis
        slicing the arrays would pay again.
        """
        if not self.enabled:
            self.misses += 1
            return None
        found = self._index.get(drive_id)
        if found is None:
            self.misses += 1
            return None
        shard, entry = found
        try:
            blob = self._mmap(shard).view(np.ndarray)
        except (OSError, ValueError):
            self.misses += 1
            return None
        base = int(entry["offset"])
        arrays: dict[str, np.ndarray] = {}
        for key in ARRAY_KEYS:
            meta = entry["arrays"][key]
            dtype = np.dtype(meta["dtype"])
            shape = tuple(int(n) for n in meta["shape"])
            nbytes = dtype.itemsize * math.prod(shape)
            offset = base + int(meta["offset"])
            arrays[key] = blob[offset : offset + nbytes].view(dtype).reshape(shape)
        bearer = BearerMode[entry["bearer"]] if entry["bearer"] else None
        self.hits += 1
        return ColumnarLog(entry["carrier"], bearer, entry["scenario"], arrays)

    def drive_nbytes(self, drive_id: str) -> int:
        """Packed payload size of one stored drive (0 when absent)."""
        found = self._index.get(drive_id)
        return 0 if found is None else int(found[1]["nbytes"])

    @property
    def bytes_indexed(self) -> int:
        """Committed bytes across every readable shard."""
        return sum(self._shards.values())

    # ------------------------------------------------------------------
    # Writes: resumable, exactly-once appends
    # ------------------------------------------------------------------

    def _writable_shard(self) -> str:
        if self._shards:
            tail = max(self._shards, key=lambda name: int(name.split("-")[1]))
            if self._shards[tail] < self.shard_limit:
                return tail
        shard = f"shard-{self._next_shard:06d}"
        self._next_shard += 1
        return shard

    def append(self, drive_id: str, clog: ColumnarLog) -> bool:
        """Append one drive; True when newly stored.

        Exactly-once: a present ``drive_id`` is a counted no-op. Write
        failures degrade to a counted no-op too (the drive stays
        missing — a rerun regenerates it); the index commit routes
        through :func:`~repro.simulate.cache.atomic_publish`, so the
        fault-injection hooks and crash-consistency guarantees match
        the per-drive cache's.
        """
        from repro.simulate.cache import atomic_publish

        if not self.enabled:
            return False
        if drive_id in self._index:
            self.duplicates += 1
            return False
        payload, entry = _encode_payload(clog)
        shard = self._writable_shard()
        blob_path = self.root / f"{shard}.bin"
        index_path = self.root / f"{shard}.json"
        committed = self._shards.get(shard, 0)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(blob_path, "r+b" if blob_path.exists() else "w+b") as handle:
                # Bytes past the committed extent are leftovers of an
                # append that died before its index commit; reclaim them.
                handle.truncate(committed)
                handle.seek(committed)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            entry = {**entry, "offset": committed}
            drives = {
                d: e for d, (s, e) in self._index.items() if s == shard
            }
            drives[drive_id] = entry
            meta = {
                "format_version": FORMAT_VERSION,
                "committed_bytes": committed + len(payload),
                "drives": drives,
            }
            with atomic_publish(index_path) as tmp:
                tmp.write_text(json.dumps(meta, sort_keys=True))
        except OSError:
            self.put_failures += 1
            return False
        self._shards[shard] = committed + len(payload)
        self._index[drive_id] = (shard, entry)
        self.appends += 1
        return True

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
            "duplicates": self.duplicates,
            "put_failures": self.put_failures,
            "quarantined": self.quarantined,
            "stale_shards": self.stale_shards,
            "drives": len(self._index),
            "shards": len(self._shards),
        }


# ----------------------------------------------------------------------
# Lazy corpus handles: what the worker pools park and ship
# ----------------------------------------------------------------------

#: Per-process store handles, keyed by root path. Workers (forked or
#: spawned) resolve :class:`DriveRef`/:class:`CorpusView` through this
#: cache, so a pool pass opens each store once per process, not per job.
_PROCESS_STORES: dict[str, CorpusStore] = {}


def open_store(path: str | Path) -> CorpusStore:
    """A process-cached read handle on the store at ``path``.

    Always enabled, whatever ``REPRO_NO_CACHE`` says: a parked
    ``(store_path, drive_id)`` pointer is the *primary* handle on data
    that already exists — resolving it is a read, not a cache layer.
    """
    key = str(path)
    store = _PROCESS_STORES.get(key)
    if store is None:
        store = CorpusStore(key, enabled=True)
        _PROCESS_STORES[key] = store
    return store


class DriveRef:
    """A picklable pointer to one stored drive: ``(store_path, drive_id)``.

    This is what the fan-out registry parks instead of an in-memory
    corpus: tens of bytes under pickle on the spawn path, and on the
    fork path the child inherits only the pointer and opens its memmap
    lazily on first use.
    """

    __slots__ = ("store_path", "drive_id")

    def __init__(self, store_path: str, drive_id: str):
        self.store_path = store_path
        self.drive_id = drive_id

    def __getstate__(self):
        return (self.store_path, self.drive_id)

    def __setstate__(self, state):
        self.store_path, self.drive_id = state

    def columnar(self) -> ColumnarLog:
        """The memmap-backed slice (no tick materialisation)."""
        clog = open_store(self.store_path).open_slice(self.drive_id)
        if clog is None:
            raise KeyError(
                f"drive {self.drive_id!r} is not in the corpus store at "
                f"{self.store_path!r}"
            )
        return clog

    def load(self):
        """The full :class:`~repro.simulate.records.DriveLog`."""
        return self.columnar().to_drive_log()


class CorpusView(Sequence):
    """A lazy, picklable sequence of drives backed by a :class:`CorpusStore`.

    Indexing materialises (and memoises) the full ``DriveLog`` — the
    one place a view still builds tick objects. :meth:`columnar` and
    :meth:`iter_columnar` expose the memmap-backed slices directly, and
    the consumers that take a whole view read those: the §5 analyses,
    the Prognos replay plan, the dataset-cache key and
    :meth:`handover_events`. Pickling ships only
    ``(store_path, drive_ids)``, so parking a view in the fan-out
    registry — or sending it to a spawn worker — costs the same
    whether the corpus is ten drives or ten million.
    """

    def __init__(self, store_path: str | Path, drive_ids: Sequence[str]):
        self.store_path = str(store_path)
        self.drive_ids = list(drive_ids)
        self._logs: dict[int, object] = {}

    def __getstate__(self):
        return (self.store_path, self.drive_ids)

    def __setstate__(self, state):
        self.store_path, self.drive_ids = state
        self._logs = {}

    def __len__(self) -> int:
        return len(self.drive_ids)

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            return CorpusView(self.store_path, self.drive_ids[index])
        i = range(len(self.drive_ids))[index]
        log = self._logs.get(i)
        if log is None:
            log = self.ref(i).load()
            self._logs[i] = log
        return log

    def ref(self, index: int) -> DriveRef:
        return DriveRef(self.store_path, self.drive_ids[index])

    def refs(self) -> list[DriveRef]:
        return [self.ref(i) for i in range(len(self.drive_ids))]

    def columnar(self, index: int) -> ColumnarLog:
        """The memmap-backed slice for one drive (no materialisation)."""
        return self.ref(index).columnar()

    def iter_columnar(self) -> Iterator[ColumnarLog]:
        for i in range(len(self.drive_ids)):
            yield self.columnar(i)

    def handover_events(self) -> list[tuple[float, object]]:
        """(global time, type) of every handover, straight off the shards.

        Matches :func:`repro.ml.features.handover_events` over the
        materialised logs — same per-log ``duration + 1 s`` re-basing —
        but touches only the handover columns and the first/last tick
        time of each drive, so a full-corpus event index never
        materialises a tick object.
        """
        events: list[tuple[float, object]] = []
        offset = 0.0
        for clog in self.iter_columnar():
            times = clog.arrays["tick_time_s"]
            duration = float(times[-1] - times[0]) if len(times) else 0.0
            for when, ho_type in zip(
                clog.arrays["ho_decision_s"].tolist(), clog.handover_types()
            ):
                events.append((when + offset, ho_type))
            offset += duration + 1.0
        events.sort(key=lambda item: item[0])
        return events
