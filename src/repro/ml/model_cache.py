"""On-disk trained-model cache: content-addressed fitted estimators.

The §7.3 benches retrain the same GBC/LSTM baselines on the same
corpus every session. This module caches fitted models on disk, keyed
by a sha256 over everything that determines the fit bit-for-bit:

* the estimator kind and its hyperparameters,
* the training arrays (shape, dtype, raw bytes) and label names, and
* the same code-version token the drive cache uses — a hash over the
  ``repro`` package sources — so editing any model code silently
  invalidates stale entries instead of serving models produced by old
  code.

It is a :class:`~repro.simulate.cache.ContentCache` layer, so it shares
the drive cache's knobs and self-healing: models live under a
``models/`` subdirectory of the cache root. Entries are gzipped pickles
— models are pure numpy containers produced by this package, not
untrusted input — and a hit is decompressed whole, so gzip's CRC
vouches for every byte unpickled.
"""

from __future__ import annotations

import gzip
import hashlib
import pickle
from pathlib import Path
from typing import Callable

import numpy as np

from repro.simulate.cache import ContentCache, code_version_token, content_key


def dataset_digest(x: np.ndarray, labels: list[object]) -> str:
    """sha256 over the training arrays and label names."""
    digest = hashlib.sha256()
    arr = np.ascontiguousarray(np.asarray(x, dtype=float))
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    for label in labels:
        digest.update(getattr(label, "name", str(label)).encode())
        digest.update(b"\0")
    return digest.hexdigest()


class ModelCache(ContentCache):
    """Content-addressed store of fitted models, as ``models/<kind>-<key>.pkl.gz``."""

    namespace = "models"

    @staticmethod
    def key_for(kind: str, data_digest: str, params: dict) -> str:
        return content_key(
            {
                "kind": kind,
                "data": data_digest,
                "params": params,
                "code_version": code_version_token(),
            }
        )

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}.pkl.gz"

    @staticmethod
    def encode(model) -> bytes:
        data = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        return gzip.compress(data, compresslevel=6)

    @staticmethod
    def decode(data: bytes):
        return pickle.loads(gzip.decompress(data))

    def get(self, kind: str, key: str):
        """The cached model, or None on a miss."""
        return self.read(self._path(kind, key))

    def put(self, kind: str, key: str, model) -> None:
        self.write(self._path(kind, key), model)


def fit_cached(
    kind: str,
    factory: Callable[[], object],
    x: np.ndarray,
    y: list[object],
    params: dict,
    *,
    cache: ModelCache | None = None,
):
    """Fit ``factory()`` on ``(x, y)``, short-circuiting via the cache.

    ``params`` must capture every hyperparameter the factory closes
    over — it is part of the content key alongside the data digest.
    """
    if cache is None:
        cache = ModelCache()
    key = cache.key_for(kind, dataset_digest(x, y), params)
    return cache.get_or_build(lambda: factory().fit(x, y), kind, key)
