"""Zero-copy corpus fan-out for the repository's worker pools.

The pools in :func:`repro.simulate.runner.run_drives`,
:func:`repro.core.evaluation.run_prognos_over_logs`,
:func:`repro.core.evaluation.table3`, and
:func:`repro.apps.abr.player.play_many` used to pickle their whole
payload — 20 Hz :class:`DriveLog` objects, bandwidth traces, scenario
graphs — once per job. At megabytes per log, per-job shipping dwarfed
the per-job compute below bench scale, so the pools only ever won on
the largest corpora.

This module replaces the shipping with fork inheritance: the payload is
parked in a module-level registry, the pool is created with the
``fork`` start method *after* registration, and each job ships only a
``(token, index)`` pair — tens of bytes. The forked child reads the
payload out of its inherited copy of the registry (copy-on-write pages,
no serialization, no re-deriving of parent-process memoisation such as
:func:`repro.simulate.cache.code_version_token`). Jobs are mapped with
a computed ``chunksize`` so a pool pass costs a handful of IPC
round-trips instead of one per job.

On platforms whose default start method is ``spawn`` (Windows, macOS)
the ``fork`` context is unavailable or unsafe to assume; ``fanout_map``
transparently falls back to the original pickle-per-job path there, so
results are identical everywhere — only the shipping cost differs.
``REPRO_FORCE_SPAWN=1`` forces that fallback on any platform, so Linux
CI exercises the non-fork branch too.

Since the supervised-execution PR, :func:`fanout_map` routes every pool
pass through :func:`repro.robust.supervisor.supervised_map`, which adds
per-job timeouts, bounded retries, broken-pool recovery, and
incremental result publication on top of the same shipping scheme. The
pre-supervision implementation is retained verbatim as
:func:`fanout_map_unsupervised` — the bit-identical reference the
equivalence tests and the supervision-overhead bench compare against.

With the sharded corpus store (:mod:`repro.simulate.corpus`), the
registry no longer needs to hold in-memory corpora at all for
store-backed passes: callers park lists of
:class:`~repro.simulate.corpus.DriveRef` pointers — ``(store_path,
drive_id)`` pairs, tens of bytes each — and every worker (fork *and*
spawn fallback alike) opens read-only memory-mapped slices lazily via
its process-local store handle. The fork pages stay tiny, the spawn
pickles stay tiny, and a worker faults in only the array pages its job
actually scans.
"""

from __future__ import annotations

import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro import settings

#: Fork-inherited payload slots, keyed by token. Only ever mutated in
#: the parent *before* pool creation; children see a frozen snapshot.
_REGISTRY: dict[int, Any] = {}
_tokens = itertools.count()


def payload(token: int) -> Any:
    """The registered payload for ``token`` (valid in forked workers)."""
    return _REGISTRY[token]


@contextmanager
def shared_payload(value: Any) -> Iterator[int]:
    """Park ``value`` for fork inheritance; yields its registry token."""
    token = next(_tokens)
    _REGISTRY[token] = value
    try:
        yield token
    finally:
        _REGISTRY.pop(token, None)


def fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def force_spawn() -> bool:
    """True when ``REPRO_FORCE_SPAWN=1`` demands the pickle fallback."""
    return settings.get("REPRO_FORCE_SPAWN")


def pool_chunksize(jobs: int, workers: int) -> int:
    """Batch jobs so each worker drains ~4 chunks, not one IPC per job."""
    return max(1, jobs // (max(1, workers) * 4))


def fanout_map(
    indexed_fn: Callable[[tuple[int, int]], Any],
    payload_value: Any,
    count: int,
    workers: int,
    *,
    fallback_fn: Callable[[Any], Any],
    fallback_jobs: Sequence[Any],
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Map ``count`` jobs over a supervised pool, shipping no corpus.

    Args:
        indexed_fn: module-level worker taking ``(token, index)`` and
            resolving the payload via :func:`payload`.
        payload_value: the corpus the jobs index into (fork-inherited).
        count: number of jobs (indices ``0..count-1``).
        workers: requested pool width (capped at ``count``).
        fallback_fn: module-level worker taking one pickled job — used
            where ``fork`` is unavailable or ``REPRO_FORCE_SPAWN=1``.
        fallback_jobs: the ``count`` pickled jobs for ``fallback_fn``.
        on_result: optional ``(index, result)`` callback fired in the
            parent as each job first completes, so callers can publish
            results incrementally instead of after the whole pass.

    Results come back in index order for either path, bit-identical to
    :func:`fanout_map_unsupervised`; the supervision (timeouts,
    retries, pool recovery, serial degradation) lives in
    :mod:`repro.robust.supervisor`.
    """
    from repro.robust.supervisor import supervised_map

    return supervised_map(
        indexed_fn,
        payload_value,
        count,
        workers,
        fallback_fn=fallback_fn,
        fallback_jobs=fallback_jobs,
        on_result=on_result,
    )


def fanout_map_unsupervised(
    indexed_fn: Callable[[tuple[int, int]], Any],
    payload_value: Any,
    count: int,
    workers: int,
    *,
    fallback_fn: Callable[[Any], Any],
    fallback_jobs: Sequence[Any],
) -> list[Any]:
    """The pre-supervision pool pass (reference for equivalence/overhead).

    One plain ``pool.map`` with no recovery: a crashed or hung worker
    loses the whole pass. Kept verbatim so tests can pin
    :func:`fanout_map` output against it and the fan-out bench can
    price supervision.
    """
    workers = max(1, min(workers, count))
    chunk = pool_chunksize(count, workers)
    ctx = None if force_spawn() else fork_context()
    if ctx is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fallback_fn, fallback_jobs, chunksize=chunk))
    with shared_payload(payload_value) as token:
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(
                pool.map(
                    indexed_fn,
                    ((token, i) for i in range(count)),
                    chunksize=chunk,
                )
            )
