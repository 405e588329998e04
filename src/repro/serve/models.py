"""Warm-loading shared serving models through the trained-model cache.

The server bootstraps every new session's learner from one shared
pattern dictionary mined offline (§9 / Fig. 15 — the paper's remedy for
cold-start predictions). Mining walks every phase of every drive, so a
restarted server over an unchanged corpus should not pay it twice:
:func:`cached_bootstrap_patterns` resolves the mined dictionary through
:class:`repro.ml.model_cache.ModelCache`, keyed by the corpus's
columnar content digests — the same content addressing the GBC/LSTM
baselines use for their fitted models.
"""

from __future__ import annotations

import hashlib

from repro.core.bootstrap import frequent_patterns_from_logs
from repro.core.patterns import Pattern
from repro.ml.model_cache import ModelCache
from repro.simulate.columnar import ColumnarLog, as_columnar
from repro.simulate.corpus import CorpusView, DriveRef

_KIND = "serve-bootstrap"


def cached_bootstrap_patterns(
    logs,
    *,
    per_type: int = 1,
    cache: ModelCache | None = None,
) -> dict[Pattern, int]:
    """Offline-mined bootstrap patterns, warm-loaded when unchanged.

    ``logs`` may be a list of :class:`~repro.simulate.records.DriveLog`
    / :class:`~repro.simulate.columnar.ColumnarLog` objects or a
    memmap-backed :class:`~repro.simulate.corpus.CorpusView`; the cache
    key digests each drive's packed columns, so any corpus edit (or a
    different ``per_type``) misses and re-mines.
    """
    cache = cache if cache is not None else ModelCache()
    handles = logs.refs() if isinstance(logs, CorpusView) else list(logs)
    digest = hashlib.sha256(b"serve-bootstrap\0")
    resolved = []
    for handle in handles:
        # A corpus ref stays a memmap slice; logs digest via their
        # (memoised) columnar form either way.
        log = handle.columnar() if isinstance(handle, DriveRef) else handle
        digest.update(as_columnar(log).content_digest().encode())
        digest.update(b"\0")
        resolved.append(log)
    key = ModelCache.key_for(_KIND, digest.hexdigest(), {"per_type": per_type})

    def mine() -> dict[Pattern, int]:
        drives = [
            log.to_drive_log() if isinstance(log, ColumnarLog) else log
            for log in resolved
        ]
        return frequent_patterns_from_logs(drives, per_type=per_type)

    return cache.get_or_build(mine, _KIND, key)
