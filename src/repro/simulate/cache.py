"""On-disk content-addressed caches: drive logs, and the machinery the
dataset and model caches share.

:class:`ContentCache` is the one implementation of an on-disk cache
layer: root and enable resolution, the hit/miss/store/put-failure/
corrupt counters, a CRC-checked read that quarantines entries that do
not decode, an atomic write that degrades to a counted no-op, and the
get-or-build step. A layer adds only a key, a path and a codec:
:class:`~repro.ml.dataset_cache.DatasetCache` and
:class:`~repro.ml.model_cache.ModelCache` beside their consumers.

:class:`DriveCache` shares the counters and the root, but keeps its
drives in a :class:`~repro.simulate.corpus.CorpusStore`, the one
on-disk home of simulated drives. It keys each
:class:`~repro.simulate.records.DriveLog` by a sha256 over everything
that determines the log bit-for-bit:

* the scenario's name and seed,
* every :class:`SimulationConfig` knob,
* the deployment (carrier plus each cell's identity/position/power and
  the segment layout),
* the trajectory (tick interval plus the packed time/arc/x/y/speed
  arrays), and
* a code-version token — a hash over the ``repro`` package sources —
  so editing the simulator silently invalidates stale entries instead
  of serving logs produced by old code.

Environment knobs (:mod:`repro.settings`): ``REPRO_CACHE_DIR`` relocates
the cache root (default ``./.repro-cache``), ``REPRO_NO_CACHE=1``
disables every layer (lookups miss, stores are no-ops), and
``REPRO_CORPUS_DIR`` relocates the default drive store (default
``<REPRO_CACHE_DIR>/corpus``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import secrets
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

import repro
from repro import settings
from repro.robust import faults
from repro.simulate.columnar import ColumnarLog
from repro.simulate.corpus import CorpusStore
from repro.simulate.records import DriveLog
from repro.simulate.scenarios import Scenario

_code_version_token: str | None = None


@contextmanager
def atomic_publish(path: Path) -> Iterator[Path]:
    """Yield a writer-unique temp path, atomically published to ``path``.

    The temp name embeds the pid plus a random suffix so two processes
    storing the same key never interleave writes into one file (a
    deterministic temp name let parallel pytest runs or two benches
    sharing ``REPRO_CACHE_DIR`` publish corrupt entries). The loser of
    the final ``replace`` race simply overwrites the winner's identical
    content. On failure the temp file is removed and nothing is
    published.

    The :mod:`repro.robust.faults` hooks make this the one choke point
    for injected cache-write faults: ``cache_write_oserror`` raises
    before anything is staged, ``cache_truncate`` corrupts the entry
    after publication (exercising the readers' quarantine path).
    """
    faults.maybe_raise_cache_write(path.name)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        yield tmp
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    faults.maybe_truncate(path)


def code_version_token() -> str:
    """A hash over the ``repro`` package sources (cached per process)."""
    global _code_version_token
    if _code_version_token is None:
        digest = hashlib.sha256()
        package_root = Path(repro.__file__).resolve().parent
        for source in sorted(package_root.rglob("*.py")):
            digest.update(source.relative_to(package_root).as_posix().encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
        _code_version_token = digest.hexdigest()
    return _code_version_token


def _jsonable(value):
    """Coerce config field values to something json can serialise stably."""
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def scenario_fingerprint(scenario: Scenario) -> dict:
    """A JSON-compatible digest of everything that determines the log."""
    config = {
        f.name: _jsonable(getattr(scenario.config, f.name))
        for f in dataclasses.fields(scenario.config)
    }
    cells = [
        [
            c.gci,
            c.pci,
            c.band.name,
            c.node_id,
            c.tower_id,
            c.position.x,
            c.position.y,
            c.eirp_dbm,
        ]
        for c in scenario.deployment.cells
    ]
    segments = [
        {f.name: _jsonable(getattr(s, f.name)) for f in dataclasses.fields(s)}
        for s in scenario.deployment.segments
    ]
    track = np.array(
        [
            [s.time_s, s.arc_m, s.position.x, s.position.y, s.speed_mps]
            for s in scenario.trajectory
        ],
        dtype=np.float64,
    )
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "config": config,
        "carrier": scenario.deployment.carrier.name,
        "cells": cells,
        "segments": segments,
        "trajectory": {
            "ticks": len(scenario.trajectory),
            "tick_interval_s": scenario.trajectory.tick_interval_s,
            "track_sha256": hashlib.sha256(track.tobytes()).hexdigest(),
        },
        "code_version": code_version_token(),
    }


def content_key(payload: dict) -> str:
    """sha256 over ``payload`` as canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def checked_zip(data: bytes) -> io.BytesIO:
    """``data`` as a file, once every member of the zip archive passes its CRC."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        bad = archive.testzip()
    if bad is not None:
        raise zipfile.BadZipFile(f"CRC mismatch in member {bad!r}")
    return io.BytesIO(data)


class ContentCache:
    """One on-disk cache layer: counters, CRC-checked reads, atomic writes.

    Entries live under ``root/namespace``. A subclass supplies the key,
    the path, ``get``/``put`` over :meth:`read`/:meth:`write`, and the
    codec: ``encode(value) -> bytes`` and ``decode(bytes) -> value``.
    Lookups on a disabled cache always miss; stores become no-ops.

    The layer is self-healing. A store that fails with ``OSError``
    (disk full, read-only ``REPRO_CACHE_DIR``) is counted in
    ``put_failures`` and otherwise ignored: a run never aborts because
    its cache is sick. A read loads the whole entry and decodes it in
    memory, checksums included, so an entry either decodes to exactly
    what was stored or is corrupt; a corrupt entry is quarantined
    (renamed ``<entry>.corrupt``, counted in ``corrupt``) so it misses
    once, not on every lookup. A failed read of the file itself is a
    plain miss: the entry may be readable next time.
    """

    #: Subdirectory of the cache root holding this layer's entries.
    namespace = ""

    def __init__(self, root: str | Path | None = None, *, enabled: bool | None = None):
        if enabled is None:
            enabled = not settings.get("REPRO_NO_CACHE")
        if root is None:
            root = settings.get("REPRO_CACHE_DIR")
        self.root = Path(root) / self.namespace
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.put_failures = 0
        self.corrupt = 0

    def read(self, path: Path):
        """The decoded entry at ``path``, or None on a (counted) miss."""
        if not self.enabled:
            self.misses += 1
            return None
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = self.decode(data)
        except Exception:
            # Decoding in-memory bytes does no I/O, so whatever a damaged
            # header or stream raised (zlib, zip, gzip, numpy, pickle
            # errors), these bytes will never decode. The run goes on;
            # the counter and the kept .corrupt file report it.
            self.corrupt += 1
            with contextlib.suppress(OSError):
                path.replace(path.with_name(path.name + ".corrupt"))
            self.misses += 1
            return None
        self.hits += 1
        return value

    def write(self, path: Path, value) -> None:
        """Publish ``value`` at ``path``; failures are counted, not raised."""
        if not self.enabled:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with atomic_publish(path) as tmp:
                tmp.write_bytes(self.encode(value))
        except OSError:
            self.put_failures += 1
            return
        self.stores += 1

    def get_or_build(self, build, *address):
        """``get(*address)``, or on a miss ``build()`` stored there."""
        value = self.get(*address)
        if value is None:
            value = build()
            self.put(*address, value)
        return value

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "put_failures": self.put_failures,
            "corrupt": self.corrupt,
        }


class DriveCache(ContentCache):
    """Content-addressed store of simulated drive logs.

    Drives live in a :class:`~repro.simulate.corpus.CorpusStore` under
    :meth:`key_for` of their scenario: ``store=`` if given, else
    ``<root>/corpus`` for an explicit ``root``, else the default store
    (``REPRO_CORPUS_DIR``, or ``<REPRO_CACHE_DIR>/corpus``). Hits are
    read-only memory-mapped slices, checked against the content digest
    recorded when the drive was appended: a slice whose bytes changed
    since quarantines its shard and counts as ``corrupt`` and a miss,
    so the caller re-simulates and the next ``put`` lands in a fresh
    shard. Stores append to the store, exactly once per key, from any
    number of processes.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        enabled: bool | None = None,
        store: CorpusStore | None = None,
    ):
        super().__init__(root, enabled=enabled)
        if store is None:
            corpus_root = None if root is None else self.root / "corpus"
            store = CorpusStore(corpus_root, enabled=self.enabled)
        self.store = store

    @staticmethod
    def key_for(scenario: Scenario) -> str:
        return content_key(scenario_fingerprint(scenario))

    def get(self, scenario: Scenario) -> DriveLog | None:
        """The cached log for ``scenario``, or None on a miss."""
        clog = self.get_columnar(scenario)
        return None if clog is None else clog.to_drive_log()

    def get_columnar(self, scenario: Scenario) -> ColumnarLog | None:
        """The cached packed arrays for ``scenario``, or None on a miss.

        The fast path for consumers that scan columns and never touch
        tick objects: no ``to_drive_log()`` rebuild. The hit is a
        read-only memory-mapped slice whose digest matched the one
        recorded at append.
        """
        if not self.enabled:
            self.misses += 1
            return None
        key = self.key_for(scenario)
        clog = self.store.open_slice(key)
        if clog is not None and not self.store.verify(key, clog):
            self.corrupt += 1
            clog = None
        if clog is None:
            self.misses += 1
            return None
        self.hits += 1
        return clog

    def put(self, scenario: Scenario, log: DriveLog) -> None:
        """Append ``log`` to the store under the scenario's content key.

        Exactly-once: a key already stored is a no-op. A failed append
        counts as a ``put_failure``.
        """
        if not self.enabled:
            return
        failures_before = self.store.put_failures
        if self.store.append(self.key_for(scenario), log.columnar()):
            self.stores += 1
        elif self.store.put_failures > failures_before:
            self.put_failures += 1
