"""Supervised process-pool mapping: the one way to run a batch of jobs.

``supervised_map(fn, jobs, workers)`` runs every batch in the
repository: the drive simulations of
:func:`repro.simulate.runner.run_drives`, the plan jobs of
:func:`repro.core.evaluation.run_prognos_over_logs`, the Table 3 cells
of :func:`repro.core.evaluation.table3` and the VoD sessions of
:func:`repro.apps.abr.player.play_many`. Each caller hands it one
module-level job function and its job list; how a job reaches a worker,
and whether a pool runs at all, is decided here and nowhere else:

* **No pool.** With ``workers <= 1`` or fewer than two jobs, ``fn``
  runs in-process in job order, ``on_result`` fires per job, and
  :func:`last_run_stats` keeps the stats of the last pool.
* **Fork** (the default where the platform has it). ``jobs`` is parked
  in a module-level registry *before* the pool starts, so the workers
  inherit it (copy-on-write pages, no serialization, no re-deriving of
  parent-process memoisation such as
  :func:`repro.simulate.cache.code_version_token`), and each job ships
  as a registry token plus its index: tens of bytes instead of a
  pickled drive log, trace or scenario graph.
* **Spawn** (platforms without ``fork``, or ``REPRO_FORCE_SPAWN=1`` so
  Linux CI exercises it too). The jobs themselves are pickled to a
  spawn pool. Results are identical either way; only the shipping cost
  differs. Store-backed passes hand over
  :class:`~repro.simulate.corpus.DriveRef` pointers, so even their
  spawn pickles stay small and each worker maps only the slices its
  job reads.

``fn`` is pickled by reference in every case, and jobs go out in chunks
(:func:`pool_chunksize`), so a pool pass costs a handful of IPC
round-trips. On top of that shipping the pass is supervised:

* **Per-job timeouts** (``REPRO_JOB_TIMEOUT_S``, default off). Chunked
  submissions get ``timeout × len(chunk)``; once a pool has misbehaved
  the supervisor resubmits with chunk size 1, so a hung job is isolated
  and timed out individually.
* **Bounded retries** (``retries``, default :data:`JOB_RETRIES`) with
  deterministic jittered backoff between recovery rounds — reruns are
  reproducible, and two supervisors sharing a host don't retry in
  lockstep.
* **Broken-pool recovery.** A crashed worker breaks the whole
  ``ProcessPoolExecutor``; the supervisor rebuilds it and resubmits
  only the jobs without results. A wedged pool (job past its deadline)
  is killed — workers terminated best-effort — and treated the same
  way.
* **Degradation ladder.** chunked pool → chunk-1 pool rebuilds →
  serial ``fn(jobs[i])`` in the parent, entered after
  :data:`MAX_POOL_REBUILDS` pool deaths or per job once its retry
  budget is exhausted. Serial execution cannot be preempted, so it
  runs without a timeout; it also bypasses the worker fault hooks,
  which is what makes it the floor of the ladder.
* **Incremental publication.** ``on_result(index, result)`` fires in
  the parent the moment a job's chunk completes, so a caller caching
  results (``run_drives``) keeps every finished job even if the run
  dies later; each index is published exactly once. This hook is also
  what makes streamed corpus generation resumable:
  :func:`repro.simulate.runner.run_drives_to_store` appends each
  finished drive to the sharded
  :class:`~repro.simulate.corpus.CorpusStore` from here, committing
  shard indexes atomically, so a killed build restarts from the drives
  already on disk.

:func:`fanout_map_unsupervised` is the pre-supervision pass — one plain
``pool.map`` over the same shipping, with no recovery — kept as the
reference the equivalence tests and the fan-out bench compare against.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from repro import settings
from repro.robust import faults

#: Pool deaths (crash or wedge) tolerated before degrading to serial.
MAX_POOL_REBUILDS = 2

#: Base backoff unit between recovery rounds, seconds.
BACKOFF_BASE_S = 0.05

#: Default retry budget per job before it degrades to serial execution.
JOB_RETRIES = 2

#: Fork-inherited job lists, keyed by token. Only ever mutated in the
#: parent *before* a pool starts; workers see a frozen snapshot.
_REGISTRY: dict[int, Sequence[Any]] = {}
_tokens = itertools.count()


@dataclass
class RunStats:
    """What one pooled :func:`supervised_map` call had to do to finish."""

    jobs: int = 0
    retried_jobs: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_jobs: int = 0
    published: int = 0
    start_method: str = ""


_last_run_stats: RunStats | None = None


def last_run_stats() -> RunStats | None:
    """Stats of the most recent pooled :func:`supervised_map` call."""
    return _last_run_stats


def job_timeout_s() -> float | None:
    """Per-job timeout from ``REPRO_JOB_TIMEOUT_S`` (0 disables)."""
    return settings.get("REPRO_JOB_TIMEOUT_S") or None


def backoff_s(round_no: int, salt: object = "") -> float:
    """Deterministic jittered backoff before recovery round ``round_no``."""
    digest = hashlib.sha256(f"{round_no}|{salt}".encode()).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64
    return BACKOFF_BASE_S * (2 ** min(round_no, 3)) * (0.5 + jitter)


def fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _shipping_context():
    """The fork context, or None when jobs must be pickled to spawn workers."""
    return None if settings.get("REPRO_FORCE_SPAWN") else fork_context()


def pool_chunksize(jobs: int, workers: int) -> int:
    """Batch jobs so each worker drains ~4 chunks, not one IPC per job."""
    return max(1, jobs // (max(1, workers) * 4))


@contextlib.contextmanager
def _park(jobs: Sequence[Any]) -> Iterator[int]:
    """Park ``jobs`` for fork inheritance; yields their registry token."""
    token = next(_tokens)
    _REGISTRY[token] = jobs
    try:
        yield token
    finally:
        _REGISTRY.pop(token, None)


def reap_process(
    pid: int,
    *,
    timeout_s: float = 10.0,
    term: bool = False,
    poll_s: float = 0.02,
) -> int:
    """Reap a direct child with a kill ladder; returns its exit code.

    Optionally SIGTERMs first (``term=True``), then polls ``waitpid``
    for up to ``timeout_s``; a child that has not exited by then is
    SIGKILLed and reaped unconditionally, so a wedged serving daemon or
    shard can never leave an orphan behind a crashed client
    (:func:`repro.serve.loadgen.stop_server` and the shard controller
    both sit on this ladder). An already-reaped pid returns 0.
    """
    try:
        if term:
            os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done == pid:
                return os.waitstatus_to_exitcode(status)
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                _, status = os.waitpid(pid, 0)
                return os.waitstatus_to_exitcode(status)
            time.sleep(poll_s)
    except (ChildProcessError, ProcessLookupError):
        return 0


def _run_chunk(
    fn: Callable[[Any], Any],
    token: int | None,
    part: Sequence[tuple[int, Any]],
    attempt: int,
) -> list[tuple[int, Any]]:
    # Worker-side: runs in the pool processes. A forked worker reads
    # each job from its inherited registry (``part`` carries indices
    # only); a spawned one received the pickled jobs. The fault hook
    # lives here — and only here — so injected crashes and hangs never
    # fire in the parent or on the serial path.
    jobs = None if token is None else _REGISTRY[token]
    out = []
    for key, job in part:
        faults.maybe_fail_job(key, attempt)
        out.append((key, fn(job if jobs is None else jobs[key])))
    return out


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a wedged/broken pool, terminating its workers."""
    # _processes is internal API, but it is the only handle on a worker
    # that will never drain its queue; guarded so a layout change
    # degrades to leaking the process, not crashing the supervisor.
    try:
        procs = list(getattr(pool, "_processes", {}).values())
    except Exception:
        procs = []
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def _pool_round(
    fn: Callable[[Any], Any],
    token: int | None,
    items: Sequence[tuple[int, Any]],
    workers: int,
    mp_ctx,
    chunk: int,
    timeout: float | None,
    results: dict[int, Any],
    publish: Callable[[int, Any], None],
    attempts: dict[int, int],
    stats: RunStats,
) -> tuple[set[int], bool]:
    """One pool pass over ``items``; returns (unfinished keys, died)."""
    chunks = [list(items[i : i + chunk]) for i in range(0, len(items), chunk)]
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_ctx)
    unfinished: set[int] = set()
    died = False
    try:
        start = time.monotonic()
        futures: dict[Future, tuple[list[tuple[int, Any]], float | None]] = {}
        for part in chunks:
            attempt = max(attempts[key] for key, _ in part)
            deadline = None if timeout is None else start + timeout * len(part)
            future = pool.submit(_run_chunk, fn, token, part, attempt)
            futures[future] = (part, deadline)
        not_done: set[Future] = set(futures)
        while not_done:
            wait_s = None
            if timeout is not None:
                nearest = min(futures[f][1] for f in not_done)
                wait_s = max(0.0, nearest - time.monotonic()) + 0.02
            done, not_done = wait(not_done, timeout=wait_s, return_when=FIRST_COMPLETED)
            for future in done:
                part, _ = futures[future]
                try:
                    for key, value in future.result():
                        if key not in results:
                            results[key] = value
                            publish(key, value)
                except BrokenProcessPool:
                    died = True
                    for key, _ in part:
                        if key not in results:
                            attempts[key] += 1
                            unfinished.add(key)
                except Exception:
                    # The job itself raised in the worker; the pool is
                    # fine. Charge an attempt and requeue.
                    for key, _ in part:
                        if key not in results:
                            attempts[key] += 1
                            unfinished.add(key)
            if timeout is not None and not_done:
                now = time.monotonic()
                overdue = [f for f in not_done if now > futures[f][1]]
                if overdue:
                    # A job ran past its deadline: the pool is wedged.
                    # Kill it; overdue jobs are charged an attempt,
                    # other in-flight jobs are innocent victims and
                    # requeue for free.
                    died = True
                    stats.timeouts += len(overdue)
                    for future in not_done:
                        charged = future in overdue
                        for key, _ in futures[future][0]:
                            if key not in results:
                                if charged:
                                    attempts[key] += 1
                                unfinished.add(key)
                    not_done = set()
    finally:
        if died:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
    return unfinished, died


def _supervise(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    token: int | None,
    workers: int,
    mp_ctx,
    on_result: Callable[[int, Any], None] | None,
    retries: int,
    stats: RunStats,
) -> list[Any]:
    results: dict[int, Any] = {}
    attempts: dict[int, int] = {key: 0 for key in range(len(jobs))}
    timeout = job_timeout_s()

    def publish(key: int, value: Any) -> None:
        stats.published += 1
        if on_result is not None:
            on_result(key, value)

    def run_serial(keys: Sequence[int]) -> None:
        for key in keys:
            value = fn(jobs[key])
            results[key] = value
            stats.serial_jobs += 1
            publish(key, value)

    remaining = list(range(len(jobs)))
    pool_deaths = 0
    while remaining:
        if len(remaining) == 1 or pool_deaths >= MAX_POOL_REBUILDS:
            run_serial(remaining)
            break
        # Jobs that exhausted their retry budget drop out of the pool
        # and run serially in-process — the bottom of the ladder.
        exhausted = [k for k in remaining if attempts[k] > retries]
        if exhausted:
            run_serial(exhausted)
            remaining = [k for k in remaining if attempts[k] <= retries]
            if not remaining:
                break
        chunk = pool_chunksize(len(remaining), workers) if pool_deaths == 0 else 1
        # Under fork a job ships as its index alone; the worker reads
        # the job from its inherited registry.
        items = [(k, None if token is not None else jobs[k]) for k in remaining]
        unfinished, pool_died = _pool_round(
            fn,
            token,
            items,
            min(workers, len(remaining)),
            mp_ctx,
            chunk,
            timeout,
            results,
            publish,
            attempts,
            stats,
        )
        if pool_died:
            pool_deaths += 1
            stats.pool_rebuilds += 1
        if unfinished:
            stats.retried_jobs += sum(1 for k in unfinished if attempts[k] > 0)
            remaining = [k for k in remaining if k in unfinished]
            time.sleep(backoff_s(pool_deaths, salt=len(remaining)))
        else:
            remaining = []
    return [results[key] for key in range(len(jobs))]


def supervised_map(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    workers: int,
    *,
    on_result: Callable[[int, Any], None] | None = None,
    retries: int = JOB_RETRIES,
) -> list[Any]:
    """``[fn(job) for job in jobs]``, over a supervised pool of ``workers``.

    ``fn`` must be a module-level function: workers import it by
    reference. Results come back in job order, identical for any worker
    count and either start method. ``on_result(index, result)`` fires in
    the parent as each job first completes (in job order when no pool
    runs). The per-job deadline is ``REPRO_JOB_TIMEOUT_S``.
    """
    global _last_run_stats
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        results = []
        for index, job in enumerate(jobs):
            results.append(fn(job))
            if on_result is not None:
                on_result(index, results[-1])
        return results
    stats = RunStats(jobs=len(jobs))
    _last_run_stats = stats
    ctx = _shipping_context()
    stats.start_method = "spawn" if ctx is None else "fork"
    parked = contextlib.nullcontext() if ctx is None else _park(jobs)
    with parked as token:
        return _supervise(
            fn,
            jobs,
            token,
            min(workers, len(jobs)),
            ctx or multiprocessing.get_context("spawn"),
            on_result,
            retries,
            stats,
        )


def _run_parked(fn: Callable[[Any], Any], token: int, index: int) -> Any:
    return fn(_REGISTRY[token][index])


def fanout_map_unsupervised(
    fn: Callable[[Any], Any], jobs: Sequence[Any], workers: int
) -> list[Any]:
    """The pre-supervision pool pass (reference for equivalence/overhead).

    One plain ``pool.map`` over the same shipping as
    :func:`supervised_map`, with no recovery: a crashed or hung worker
    loses the whole pass. Kept so tests can pin :func:`supervised_map`
    output against it and the fan-out bench can price supervision.
    """
    jobs = list(jobs)
    workers = max(1, min(workers, len(jobs)))
    chunk = pool_chunksize(len(jobs), workers)
    ctx = _shipping_context()
    if ctx is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs, chunksize=chunk))
    with _park(jobs) as token:
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(
                pool.map(
                    partial(_run_parked, fn, token), range(len(jobs)), chunksize=chunk
                )
            )
