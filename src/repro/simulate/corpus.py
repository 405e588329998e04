"""Out-of-core sharded corpus store: the one on-disk home of simulated drives.

:class:`CorpusStore` keeps drives in *sharded, uncompressed,
memory-mappable* corpus files:

* one arrays blob per shard (``shard-NNNNNN.bin`` — the packed
  :data:`~repro.simulate.columnar.ARRAY_KEYS` arrays of many drives,
  concatenated with 64-byte alignment),
* one JSON index per shard (``shard-NNNNNN.json`` — byte offsets,
  dtypes and shapes per drive per array, each drive's content digest,
  and the shard's committed extent), committed atomically through
  :func:`~repro.simulate.cache.atomic_publish`, and
* one lock file per store (``append.lock``) that serialises appends.

:class:`~repro.simulate.cache.DriveCache` reads and appends through a
store, and :func:`~repro.simulate.runner.run_drives_to_store` fills one
directly.

:meth:`CorpusStore.open_slice` returns a
:class:`~repro.simulate.columnar.ColumnarLog` whose arrays are
read-only plain ``ndarray`` views over the shard's ``np.memmap``: no
decompression, no copy, no whole-log materialisation — a consumer that
scans only the handover columns faults in only those pages. The views
keep the mapping alive on their own, so they survive the store (or even
the process's last store handle) going away.

**Appends are resumable, exactly-once, and safe across processes.**
``append`` holds an exclusive ``fcntl.flock`` on the store's lock file
while it re-reads the index of the highest-numbered shard and of any
newer one (an append only ever writes the highest-numbered shard, so
every older index is as this handle last read it), checks that the
drive is absent, writes its payload to the tail of that shard's blob
(fsync), and publishes the updated index atomically. Many writers, in
one process or many, are thus serialised by one lock, and none
truncates bytes another committed. A crash between the blob write and
the index commit leaves unreferenced bytes at the tail, which the next
append truncates away; a crash before either leaves nothing.
Re-appending a present ``drive_id`` is a counted no-op — which is
exactly what makes ``run_drives``-style generation resumable: kill a
corpus build at drive k of n, rerun, and only the n−k missing drives
simulate.

Readers take no lock: an index names only bytes that were fsynced
before it was published. A handle that misses a drive re-reads the
tail indexes once before it counts the miss, so it finds drives other
handles appended since it last looked.

**Corruption degrades to misses**, mirroring the self-healing cache
semantics: a shard whose index fails to parse, whose blob is shorter
than its index's committed extent, or whose index references bytes
past that extent is *quarantined* — both files renamed ``*.corrupt``,
its drives become misses — and so is a shard whose index entry fails
to decode on read (a damaged bearer name, dtype, shape or array key).
Each entry records the drive's
:meth:`~repro.simulate.columnar.ColumnarLog.content_digest`;
:meth:`CorpusStore.verify` checks a slice against it and quarantines
the shard on a mismatch (the drive cache verifies every hit; reads
through :class:`CorpusView` and :class:`DriveRef` are not checked). A
shard written by a different ``FORMAT_VERSION`` is skipped as stale,
not corrupt. A failed append (``OSError``, injected
``cache_write_oserror``) is a counted no-op; the drive simply stays
missing.

Environment knobs (:mod:`repro.settings`): ``REPRO_CORPUS_DIR`` is the
default store root, else ``<REPRO_CACHE_DIR>/corpus``.
``REPRO_NO_CACHE=1`` disables the store like every other cache layer.
Shards roll over at ``shard_mb`` (default 64 MiB).

Workers never receive corpora over IPC: :class:`CorpusView` parks only
``(store_path, drive_ids)`` — tens of bytes under pickle — and each
worker opens its memmaps lazily, on the fork *and* spawn paths alike.
Like the sharded server, the store is POSIX-only: it locks with
``fcntl``, and it truncates and renames files that other handles may
have mapped.
"""

from __future__ import annotations

import contextlib
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

#: The lock file appends hold. Not ``shard-*``: the shard set is a glob.
LOCK_NAME = "append.lock"


def _default_root() -> Path:
    return Path(
        settings.get("REPRO_CORPUS_DIR")
        or Path(settings.get("REPRO_CACHE_DIR")) / "corpus"
    )


def _number(name: str) -> int | None:
    """The shard number of a ``shard-NNNNNN[.suffix]`` file name."""
    try:
        return int(name.split(".")[0].split("-")[1])
    except (IndexError, ValueError):
        return None


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
        "digest": clog.content_digest(),
        "nbytes": pos,
        "arrays": arrays,
    }
    return b"".join(chunks), entry


def _decode_entry(blob: np.ndarray, entry: dict) -> ColumnarLog:
    """The drive at ``entry`` as views over ``blob``.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` on an entry
    that cannot name a drive inside the blob.
    """
    base = int(entry["offset"])
    arrays: dict[str, np.ndarray] = {}
    for key in ARRAY_KEYS:
        meta = entry["arrays"][key]
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(n) for n in meta["shape"])
        nbytes = dtype.itemsize * math.prod(shape)
        offset = base + int(meta["offset"])
        if not 0 <= offset <= offset + nbytes <= len(blob):
            raise ValueError(f"array {key!r} lies outside the shard blob")
        arrays[key] = blob[offset : offset + nbytes].view(dtype).reshape(shape)
    bearer = BearerMode[entry["bearer"]] if entry["bearer"] else None
    return ColumnarLog(entry["carrier"], bearer, entry["scenario"], arrays)


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
        #: Shards skipped for a foreign ``FORMAT_VERSION``.
        self._stale: set[str] = set()
        #: drive_id -> (shard name, index entry).
        self._index: dict[str, tuple[str, dict]] = {}
        #: shard name -> its parsed index (``committed_bytes``, ``drives``).
        self._shards: dict[str, dict] = {}
        #: One past the highest shard number on disk, counting
        #: quarantined and stale shards: numbers are never reused.
        self._next_shard = 0
        #: shard name -> the mapping of its committed extent.
        self._mmaps: dict[str, np.memmap] = {}
        if self.enabled:
            self._load_shards(0)

    # ------------------------------------------------------------------
    # Index loading, validation, and quarantine
    # ------------------------------------------------------------------

    def _load_shards(self, first: int) -> None:
        """(Re)load the index of every shard numbered ``first`` or above."""
        for shard in [s for s in self._shards if _number(s) >= first]:
            self._forget(shard)
        if not self.root.is_dir():
            return
        for path in self.root.glob("shard-*"):
            number = _number(path.name)
            if number is not None:
                self._next_shard = max(self._next_shard, number + 1)
        for index_path in sorted(self.root.glob("shard-*.json")):
            shard = index_path.name[: -len(".json")]
            number = _number(shard)
            if number is None or number < first:
                continue
            try:
                meta = json.loads(index_path.read_text())
            except OSError:
                continue  # unreadable (or just quarantined): a plain miss
            except ValueError:
                self._quarantine(shard)
                continue
            if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
                # A shard written by other code is stale, not corrupt:
                # skip it (its drives read as misses) but leave it alone.
                self._stale.add(shard)
                continue
            if not self._validate(shard, meta):
                self._quarantine(shard)
                continue
            meta["committed_bytes"] = int(meta["committed_bytes"])
            self._shards[shard] = meta
            for drive_id, entry in meta["drives"].items():
                self._index.setdefault(drive_id, (shard, entry))

    def _sync(self) -> None:
        """Re-read the tail shard's index and any newer shard's.

        An append only ever writes the highest-numbered shard, so these
        are the only indexes that can have changed since this handle
        last read them.
        """
        self._load_shards(max(self._next_shard - 1, 0))

    def _validate(self, shard: str, meta: dict) -> bool:
        """True when the shard's blob covers everything its index claims."""
        try:
            committed = int(meta["committed_bytes"])
            entries = list(meta["drives"].values())
            blob_size = (self.root / f"{shard}.bin").stat().st_size
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            return False
        if blob_size < committed:
            return False  # truncated blob: index promises bytes it lost
        for entry in entries:
            try:
                if int(entry["offset"]) + int(entry["nbytes"]) > committed:
                    return False  # index/shard mismatch
                if set(entry["arrays"]) != set(ARRAY_KEYS):
                    return False
            except (KeyError, TypeError, ValueError):
                return False
        return True

    def _forget(self, shard: str) -> None:
        """Drop ``shard``, its mapping and its drives from this handle."""
        meta = self._shards.pop(shard, None)
        self._mmaps.pop(shard, None)
        if meta is not None:
            for drive_id in meta["drives"]:
                if self._index.get(drive_id, ("",))[0] == shard:
                    del self._index[drive_id]

    def _quarantine(self, shard: str) -> None:
        """Rename the shard pair ``*.corrupt``; its drives become misses."""
        self.quarantined += 1
        self._forget(shard)
        for suffix in (".json", ".bin"):
            path = self.root / f"{shard}{suffix}"
            with contextlib.suppress(OSError):
                path.replace(path.with_name(path.name + ".corrupt"))

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
        committed = self._shards[shard]["committed_bytes"]
        cached = self._mmaps.get(shard)
        if cached is None or len(cached) != committed:
            cached = np.memmap(
                self.root / f"{shard}.bin",
                dtype=np.uint8,
                mode="r",
                shape=(committed,),
            )
            self._mmaps[shard] = cached
        return cached

    def open_slice(self, drive_id: str) -> ColumnarLog | None:
        """The drive's :class:`ColumnarLog`, arrays as read-only views.

        Returns None (a counted miss) when the drive is absent, its
        shard is transiently unreadable, or its entry does not decode
        (which quarantines the shard). A drive this handle does not
        know is looked up once more in the tail indexes first: another
        handle may have appended it since. The returned arrays are
        views over the shard mapping — only the pages a consumer
        touches are ever faulted in, and the views stay valid after the
        store object is gone. They are cut from a plain ``ndarray``
        view of the ``np.memmap``, not from the memmap itself: every
        view operation on the memmap subclass runs its
        ``__array_finalize__``, a cost each open and then each analysis
        slicing the arrays would pay again.
        """
        if not self.enabled:
            self.misses += 1
            return None
        if drive_id not in self._index:
            self._sync()
        found = self._index.get(drive_id)
        if found is None:
            self.misses += 1
            return None
        shard, entry = found
        try:
            clog = _decode_entry(self._mmap(shard).view(np.ndarray), entry)
        except OSError:
            self.misses += 1
            return None
        except (KeyError, TypeError, ValueError):
            # A damaged entry, or a blob shorter than the committed
            # extent: these bytes will never decode.
            self._quarantine(shard)
            self.misses += 1
            return None
        self.hits += 1
        return clog

    def verify(self, drive_id: str, clog: ColumnarLog) -> bool:
        """True when ``clog`` hashes to the digest recorded at append.

        On a mismatch the drive's bytes changed after they were
        committed: its shard is quarantined.
        """
        found = self._index.get(drive_id)
        if found is None:
            return False
        shard, entry = found
        if clog.content_digest() == entry.get("digest"):
            return True
        self._quarantine(shard)
        return False

    @property
    def bytes_indexed(self) -> int:
        """Committed bytes across every readable shard."""
        return sum(meta["committed_bytes"] for meta in self._shards.values())

    # ------------------------------------------------------------------
    # Writes: resumable, exactly-once appends
    # ------------------------------------------------------------------

    def _writable_shard(self) -> str:
        """The highest-numbered shard if it is live with room, else a new one."""
        tail = f"shard-{self._next_shard - 1:06d}"
        meta = self._shards.get(tail)
        if meta is not None and meta["committed_bytes"] < self.shard_limit:
            return tail
        self._next_shard += 1
        return f"shard-{self._next_shard - 1:06d}"

    def append(self, drive_id: str, clog: ColumnarLog) -> bool:
        """Append one drive; True when newly stored.

        Exactly-once across every handle on the root: a present
        ``drive_id`` is a counted no-op. Write failures degrade to a
        counted no-op too (the drive stays missing — a rerun
        regenerates it); the index commit routes through
        :func:`~repro.simulate.cache.atomic_publish`, so the
        fault-injection hooks and crash-consistency guarantees match
        the other caches'.
        """
        import fcntl  # POSIX only; imported here so the package imports anywhere

        from repro.simulate.cache import atomic_publish

        if not self.enabled:
            return False
        payload, entry = _encode_payload(clog)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.root / LOCK_NAME, "ab") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)  # released on close
                self._sync()
                if drive_id in self._index:
                    self.duplicates += 1
                    return False
                shard = self._writable_shard()
                old = self._shards.get(shard, {"committed_bytes": 0, "drives": {}})
                committed = old["committed_bytes"]
                # A live shard's blob must still be there ("r+b"): a
                # reader may have quarantined it since the sync.
                with open(self.root / f"{shard}.bin", "r+b" if committed else "w+b") as handle:
                    # Bytes past the committed extent are leftovers of an
                    # append that died before its index commit; reclaim them.
                    handle.truncate(committed)
                    handle.seek(committed)
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                entry["offset"] = committed
                meta = {
                    "format_version": FORMAT_VERSION,
                    "committed_bytes": committed + len(payload),
                    "drives": {**old["drives"], drive_id: entry},
                }
                with atomic_publish(self.root / f"{shard}.json") as tmp:
                    tmp.write_text(json.dumps(meta, sort_keys=True))
        except OSError:
            self.put_failures += 1
            return False
        self._shards[shard] = meta
        self._mmaps.pop(shard, None)
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
            "stale_shards": len(self._stale),
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
    :meth:`iter_columnar` expose the memmap-backed slices directly
    (memoised the same way, so a digest memoised on a slice serves
    every later key over the view), and the consumers that take a
    whole view read those: the §5 analyses, the Prognos replay plan,
    the dataset-cache key and :meth:`handover_events`. Neither memo is
    pickled: pickling ships only
    ``(store_path, drive_ids)``, so parking a view in the fan-out
    registry — or sending it to a spawn worker — costs the same
    whether the corpus is ten drives or ten million.
    """

    def __init__(self, store_path: str | Path, drive_ids: Sequence[str]):
        self.store_path = str(store_path)
        self.drive_ids = list(drive_ids)
        self._logs: dict[int, object] = {}
        self._slices: dict[int, ColumnarLog] = {}

    def __getstate__(self):
        return (self.store_path, self.drive_ids)

    def __setstate__(self, state):
        self.store_path, self.drive_ids = state
        self._logs = {}
        self._slices = {}

    def __len__(self) -> int:
        return len(self.drive_ids)

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            return CorpusView(self.store_path, self.drive_ids[index])
        i = range(len(self.drive_ids))[index]
        log = self._logs.get(i)
        if log is None:
            log = self.columnar(i).to_drive_log()
            self._logs[i] = log
        return log

    def ref(self, index: int) -> DriveRef:
        return DriveRef(self.store_path, self.drive_ids[index])

    def refs(self) -> list[DriveRef]:
        return [self.ref(i) for i in range(len(self.drive_ids))]

    def columnar(self, index: int) -> ColumnarLog:
        """The memmap-backed slice for one drive (no materialisation)."""
        i = range(len(self.drive_ids))[index]
        clog = self._slices.get(i)
        if clog is None:
            clog = self.ref(i).columnar()
            self._slices[i] = clog
        return clog

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
