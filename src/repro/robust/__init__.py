"""Supervised execution: fault-tolerant worker pools and self-healing caches.

The corpus pipelines fan thousands of independent jobs over process
pools (:func:`repro.simulate.runner.run_drives`,
:func:`repro.core.evaluation.run_prognos_over_logs`,
:func:`repro.core.evaluation.table3`,
:func:`repro.apps.abr.player.play_many`) and persist results through
three content-addressed caches. At production scale — the paper's
6,200 km multi-carrier campaign re-drove failed log collections as a
matter of course — individual workers crash, hang, and run out of
disk, and none of that should lose a run.

This package supplies the two halves of that guarantee:

* :mod:`repro.robust.supervisor` — :func:`~supervisor.supervised_map`
  is the one entry point for a batch of jobs. It decides how jobs
  reach the workers (fork-inherited, or pickled to a spawn pool) and
  when no pool runs at all, and it wraps every pool pass with per-job
  timeouts (``REPRO_JOB_TIMEOUT_S``), bounded retries with
  deterministic jittered backoff, broken-pool recovery (rebuild, re-run
  only unfinished jobs, degrade to serial in-process execution after
  repeated pool deaths), and incremental result publication so
  completed jobs survive a later fault.
* :mod:`repro.robust.faults` — a deterministic fault-injection
  harness driven by the ``REPRO_FAULTS`` env spec, used by the test
  suite to prove every recovery path end-to-end.

With no faults injected the supervised pools produce bit-identical
results to the unsupervised reference path
(:func:`repro.robust.supervisor.fanout_map_unsupervised`).
"""

from repro.robust import faults
from repro.robust.supervisor import (
    RunStats,
    job_timeout_s,
    last_run_stats,
    supervised_map,
)

__all__ = [
    "RunStats",
    "faults",
    "job_timeout_s",
    "last_run_stats",
    "supervised_map",
]
