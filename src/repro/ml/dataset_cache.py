"""On-disk derived-dataset cache: content-addressed feature matrices.

Feature extraction over a 35-minute 20 Hz corpus costs seconds per
Table 3 cell, and the §7.3 benches rebuild the exact same matrices
every session. This module caches :class:`LabeledDataset` artefacts on
disk, keyed by a sha256 over everything that determines the build
bit-for-bit:

* the builder kind and its parameters (stride, window, ...),
* a content digest of every input drive log (ticks, reports,
  handovers — not the object identity), and
* the same code-version token the drive/model caches use — a hash over
  the ``repro`` package sources — so editing a feature-extraction
  constant silently invalidates stale entries instead of serving
  matrices produced by old code.

It is a :class:`~repro.simulate.cache.ContentCache` layer, so it shares
the drive cache's knobs and self-healing: datasets live under a
``datasets/`` subdirectory of the cache root. Entries are ``.npz``
archives — arrays round-trip losslessly and labels are stored by enum
name — whose member CRCs are checked on every hit.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.ml.features import LabeledDataset
from repro.rrc.taxonomy import HandoverType
from repro.simulate.cache import (
    ContentCache,
    checked_zip,
    code_version_token,
    content_key,
)
from repro.simulate.corpus import CorpusView
from repro.simulate.records import DriveLog


def log_content_digest(log) -> str:
    """sha256 over everything in the log a feature builder can read.

    Hashes the log's packed columnar arrays
    (:meth:`DriveLog.columnar`) rather than pickling tick tuples: logs
    served by the drive cache are already columnar-backed, so their
    digest is a straight pass over the loaded arrays, and fresh logs
    pack once into a form the cache store reuses. Memoized on the log
    instance, as the Table 3 drivers digest the same logs once per
    (kind, params) combination. Accepts a
    :class:`~repro.simulate.columnar.ColumnarLog` too — memory-mapped
    corpus slices digest without materialising a DriveLog.
    """
    from repro.simulate.columnar import as_columnar

    cached = log.__dict__.get("_content_digest")
    if cached is not None:
        return cached
    token = as_columnar(log).content_digest()
    log.__dict__["_content_digest"] = token
    return token


class DatasetCache(ContentCache):
    """Content-addressed store of derived feature datasets, as
    ``datasets/<kind>-<key>.npz``."""

    namespace = "datasets"

    @staticmethod
    def key_for(kind: str, logs: Sequence[DriveLog], params: dict) -> str:
        """The entry's content key; a corpus view digests its memmap
        slices, so keying never materialises a drive (and matches the
        key of the same drives as ``DriveLog`` objects)."""
        if isinstance(logs, CorpusView):
            logs = logs.iter_columnar()
        return content_key(
            {
                "kind": kind,
                "logs": [log_content_digest(log) for log in logs],
                "params": params,
                "code_version": code_version_token(),
            }
        )

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}.npz"

    @staticmethod
    def encode(dataset: LabeledDataset) -> bytes:
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            x=dataset.x,
            times_s=dataset.times_s,
            labels=np.array([label.name for label in dataset.labels]),
        )
        return buffer.getvalue()

    @staticmethod
    def decode(data: bytes) -> LabeledDataset:
        with np.load(checked_zip(data), allow_pickle=False) as archive:
            labels = [HandoverType[name] for name in archive["labels"].tolist()]
            return LabeledDataset(archive["x"], labels, archive["times_s"])

    def get(self, kind: str, key: str) -> LabeledDataset | None:
        """The cached dataset, or None on a miss."""
        return self.read(self._path(kind, key))

    def put(self, kind: str, key: str, dataset: LabeledDataset) -> None:
        self.write(self._path(kind, key), dataset)


def build_cached(
    kind: str,
    builder: Callable[[], LabeledDataset],
    logs: Sequence[DriveLog],
    params: dict,
    *,
    cache: DatasetCache | None = None,
) -> LabeledDataset:
    """Build a dataset through the cache.

    ``params`` must capture every knob the builder closes over — it is
    part of the content key alongside the log digests.
    """
    if cache is None:
        cache = DatasetCache()
    return cache.get_or_build(builder, kind, cache.key_for(kind, logs, params))
