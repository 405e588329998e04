"""Parallel drive execution with transparent caching.

:func:`run_drives` is the one entry point for turning scenarios into
drive logs. It looks every scenario up in the :class:`DriveCache`
first, simulates only the misses — fanned out over a
``ProcessPoolExecutor`` when ``workers`` > 1 — and returns logs in the
input order.

Determinism is inherent rather than arranged: each
:meth:`Scenario.run` seeds its own ``np.random.default_rng`` from the
scenario seed, so a drive's log is a pure function of the scenario and
identical no matter which worker (or how many workers) produced it.

The pool ships no scenario graphs: misses fan out through
:mod:`repro.simulate.fanout`, which parks the scenario list for fork
inheritance and sends each worker only an index (falling back to
pickling where ``fork`` is unavailable). The pass is supervised
(:mod:`repro.robust`): crashed or hung workers are retried and the
pool degrades to serial execution rather than losing the run, and
every finished drive is published to the cache the moment it
completes.

That incremental publication is also what makes corpus generation
*resumable*: :func:`run_drives_to_store` streams every finished drive
into a sharded :class:`~repro.simulate.corpus.CorpusStore` through the
same exactly-once ``on_result`` hook and returns a lazy
:class:`~repro.simulate.corpus.CorpusView` instead of materialised
logs. Kill a corpus build at drive k of n, rerun, and only the n−k
missing drives simulate — the rest are already committed shards on
disk. (Plain :func:`run_drives` gains the same property whenever its
cache has a corpus store attached, i.e. ``REPRO_CORPUS_DIR`` is set.)

``REPRO_BENCH_WORKERS`` sets the default worker count (1 = serial).
"""

from __future__ import annotations

from typing import Sequence

from repro import settings
from repro.simulate import fanout
from repro.simulate.cache import DriveCache
from repro.simulate.corpus import CorpusStore, CorpusView
from repro.simulate.records import DriveLog
from repro.simulate.scenarios import Scenario


def default_workers() -> int:
    """Worker count from ``REPRO_BENCH_WORKERS`` (default 1 = serial)."""
    return settings.get("REPRO_BENCH_WORKERS")


def _run_one(scenario: Scenario) -> DriveLog:
    # Module-level so ProcessPoolExecutor can pickle it by reference.
    return scenario.run()


def _run_one_indexed(job: tuple[int, int]) -> DriveLog:
    # Fork-inherited fan-out worker: resolve the scenario by index.
    token, index = job
    return fanout.payload(token)[index].run()


def run_drives(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    *,
    cache: DriveCache | None = None,
    use_cache: bool = True,
) -> list[DriveLog]:
    """Simulate ``scenarios``; return their logs in input order.

    Args:
        scenarios: the drives to run.
        workers: process count for the misses. None reads
            ``REPRO_BENCH_WORKERS``; 0/1 runs serially in-process.
        cache: the drive cache to consult/fill. None constructs the
            default (``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` aware).
        use_cache: False bypasses caching entirely for this call.
    """
    scenarios = list(scenarios)
    if workers is None:
        workers = default_workers()
    if cache is None and use_cache:
        cache = DriveCache()

    logs: list[DriveLog | None] = [None] * len(scenarios)
    misses: list[int] = []
    for i, scenario in enumerate(scenarios):
        cached = cache.get(scenario) if use_cache and cache else None
        if cached is not None:
            logs[i] = cached
        else:
            misses.append(i)

    if misses:
        # Publish incrementally: each drive is cached the moment it
        # finishes (in the parent, as pool chunks complete), so a crash
        # at drive 999/1000 loses one drive and a rerun resumes from
        # the cache instead of resimulating the lot.
        def publish(offset: int, log: DriveLog) -> None:
            index = misses[offset]
            logs[index] = log
            if use_cache and cache:
                cache.put(scenarios[index], log)

        if workers <= 1 or len(misses) == 1:
            for offset, i in enumerate(misses):
                publish(offset, _run_one(scenarios[i]))
        else:
            miss_scenarios = [scenarios[i] for i in misses]
            fanout.fanout_map(
                _run_one_indexed,
                miss_scenarios,
                len(miss_scenarios),
                workers,
                fallback_fn=_run_one,
                fallback_jobs=miss_scenarios,
                on_result=publish,
            )

    return logs  # type: ignore[return-value]


def run_drives_to_store(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    *,
    store: CorpusStore | None = None,
    cache: DriveCache | None = None,
    use_cache: bool = True,
) -> CorpusView:
    """Simulate ``scenarios`` into the corpus store; return a lazy view.

    Out-of-core ``run_drives``: nothing is kept in memory. Drives
    already committed to ``store`` are skipped outright; per-drive
    ``.npz`` cache hits are migrated into the store without
    re-simulating; only genuinely missing drives fan out, and each one
    is appended to the store the moment it finishes (the supervised
    pool's exactly-once ``on_result`` publication). The returned
    :class:`CorpusView` opens memory-mapped slices lazily, in whichever
    process ends up consuming them.

    Because every append commits its shard index atomically, a build
    killed at drive k of n resumes on rerun: the first k drives read
    straight from the shards and only n−k simulate.

    Args:
        scenarios: the drives the corpus should hold.
        workers: process count for the misses. None reads
            ``REPRO_BENCH_WORKERS``; 0/1 runs serially in-process.
        store: the corpus store to fill. None uses the cache's attached
            store, or the default (``REPRO_CORPUS_DIR`` aware).
        cache: a per-drive cache to consult for migration. None
            constructs the default bound to ``store``.
        use_cache: False skips the per-drive cache consult (the corpus
            store itself is always consulted — it is the output).
    """
    scenarios = list(scenarios)
    if workers is None:
        workers = default_workers()
    if store is None:
        if cache is not None and isinstance(cache.store, CorpusStore):
            store = cache.store
        else:
            store = CorpusStore()
    if not store.enabled:
        raise ValueError(
            "run_drives_to_store needs an enabled CorpusStore "
            "(REPRO_NO_CACHE=1 disables the default one)"
        )
    if cache is None and use_cache:
        cache = DriveCache(store=store)

    keys = [DriveCache.key_for(s) for s in scenarios]
    missing: list[int] = []
    for i, key in enumerate(keys):
        if key in store:
            continue
        if use_cache and cache is not None:
            # A .npz hit migrates into the store inside get_columnar
            # (when the cache is bound to it) — append is a no-op then.
            clog = cache.get_columnar(scenarios[i])
            if clog is not None:
                store.append(key, clog)
                if key in store:
                    continue
        missing.append(i)

    if missing:

        def publish(offset: int, log: DriveLog) -> None:
            store.append(keys[missing[offset]], log.columnar())

        if workers <= 1 or len(missing) == 1:
            for offset, i in enumerate(missing):
                publish(offset, _run_one(scenarios[i]))
        else:
            miss_scenarios = [scenarios[i] for i in missing]
            fanout.fanout_map(
                _run_one_indexed,
                miss_scenarios,
                len(miss_scenarios),
                workers,
                fallback_fn=_run_one,
                fallback_jobs=miss_scenarios,
                on_result=publish,
            )

    return CorpusView(store.root, keys)
