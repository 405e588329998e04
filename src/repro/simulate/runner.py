"""Parallel drive execution with transparent caching.

:func:`run_drives` is the one entry point for turning scenarios into
drive logs. It looks every scenario up in the :class:`DriveCache`
first, simulates only the misses — fanned out over a process pool
when ``workers`` > 1 — and returns logs in the input order.

Determinism is inherent rather than arranged: each
:meth:`Scenario.run` seeds its own ``np.random.default_rng`` from the
scenario seed, so a drive's log is a pure function of the scenario and
identical no matter which worker (or how many workers) produced it.

The misses go to :func:`repro.robust.supervisor.supervised_map` as one
job list for :func:`_run_one`. It ships no scenario graphs where
``fork`` exists (each worker inherits the list and gets an index), and
it supervises the pass: crashed or hung workers are retried, the pool
degrades to serial execution rather than losing the run, and every
finished drive is published the moment it completes.

That incremental publication is also what makes corpus generation
*resumable*: the drive cache appends each finished drive to its
:class:`~repro.simulate.corpus.CorpusStore` through the supervised
pool's exactly-once ``on_result`` hook, and :func:`run_drives_to_store`
streams into a store the same way through the same call, returning a
lazy :class:`~repro.simulate.corpus.CorpusView` instead of materialised
logs. Kill a corpus build at drive k of n, rerun, and only the n−k
missing drives simulate — the rest are already committed shards on
disk.

``REPRO_BENCH_WORKERS`` sets the default worker count (1 = serial).
"""

from __future__ import annotations

from typing import Sequence

from repro import settings
from repro.robust.supervisor import supervised_map
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
    if not use_cache:
        cache = None
    elif cache is None:
        cache = DriveCache()

    logs: list[DriveLog | None] = [None] * len(scenarios)
    misses: list[int] = []
    for i, scenario in enumerate(scenarios):
        logs[i] = None if cache is None else cache.get(scenario)
        if logs[i] is None:
            misses.append(i)

    def publish(offset: int, log: DriveLog) -> None:
        index = misses[offset]
        logs[index] = log
        if cache is not None:
            cache.put(scenarios[index], log)

    supervised_map(
        _run_one, [scenarios[i] for i in misses], workers, on_result=publish
    )
    return logs  # type: ignore[return-value]


def run_drives_to_store(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    *,
    store: CorpusStore | None = None,
    cache: DriveCache | None = None,
) -> CorpusView:
    """Simulate ``scenarios`` into the corpus store; return a lazy view.

    Out-of-core ``run_drives``: nothing is kept in memory. Drives
    already committed to ``store`` are skipped outright; only missing
    drives fan out, and each one is appended to the store the moment
    it finishes (the supervised pool's exactly-once ``on_result``
    publication). The returned :class:`CorpusView` opens memory-mapped
    slices lazily, in whichever process ends up consuming them.

    Because every append commits its shard index atomically, a build
    killed at drive k of n resumes on rerun: the first k drives read
    straight from the shards and only n−k simulate.

    Args:
        scenarios: the drives the corpus should hold.
        workers: process count for the misses. None reads
            ``REPRO_BENCH_WORKERS``; 0/1 runs serially in-process.
        store: the corpus store to fill. None uses ``cache.store``, or
            the default store (``REPRO_CORPUS_DIR`` aware).
        cache: a drive cache whose store to fill when ``store`` is None.
    """
    scenarios = list(scenarios)
    if workers is None:
        workers = default_workers()
    if store is None:
        store = cache.store if cache is not None else CorpusStore()
    if not store.enabled:
        raise ValueError(
            "run_drives_to_store needs an enabled CorpusStore "
            "(REPRO_NO_CACHE=1 disables the default one)"
        )

    keys = [DriveCache.key_for(s) for s in scenarios]
    missing = [i for i, key in enumerate(keys) if key not in store]

    def publish(offset: int, log: DriveLog) -> None:
        store.append(keys[missing[offset]], log.columnar())

    supervised_map(
        _run_one, [scenarios[i] for i in missing], workers, on_result=publish
    )
    return CorpusView(store.root, keys)
