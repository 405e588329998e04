"""Zero-copy corpus fan-out: per-job shipped bytes and wall-clock.

The worker pools in :func:`repro.simulate.runner.run_drives`,
:func:`repro.core.evaluation.run_prognos_over_logs`, and
:func:`repro.apps.abr.player.play_many` no longer pickle their payloads
per job: :func:`repro.robust.supervisor.supervised_map` parks the job
list (scenarios / drive logs / play jobs) in its registry before the
pool forks, each worker job ships as a registry token plus an index,
and results come back in job order.

This bench quantifies both halves of that change: the bytes a job would
have shipped under pickle-per-job vs. what the indexed jobs ship now
(deterministic — asserted >= 10x smaller), and the wall-clock of the
fanned stages at 1 vs. 4 workers (asserted only on multi-core hosts,
since a single-CPU container cannot win from parallelism). It also
prices the supervision layer (:mod:`repro.robust`): the same play jobs
through ``supervised_map`` vs the retained pre-supervision
``fanout_map_unsupervised``, best of 2, asserted <= 1.05x on the warm
no-fault path. Results land in ``BENCH_corpus_fanout.json`` at the repo
root, including the host's CPU count so the timing numbers can be read
in context.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus to a CI smoke budget.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

from repro.apps.abr.algorithms import FastMpc, Festive, RateBased, RobustMpc
from repro.apps.abr.player import _play_job, play_many
from repro.core.evaluation import configs_for_log, run_prognos_over_logs
from repro.net.emulation import BandwidthTrace
from repro.perf import Timer
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust.supervisor import fanout_map_unsupervised, supervised_map
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import city_walk_scenario

from conftest import print_header

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
WALKS = 1 if SMOKE else 2
WALK_MIN = 4 if SMOKE else 12
PROGNOS_STRIDE = 8
FAN_WORKERS = 4
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_corpus_fanout.json"


def _job_bytes(jobs) -> int:
    """Total pickled size of per-job payloads, as pickle-per-job ships."""
    return sum(len(pickle.dumps(job, pickle.HIGHEST_PROTOCOL)) for job in jobs)


def _indexed_bytes(count: int) -> int:
    """Total pickled size of the ``(token, index)`` jobs that replace them."""
    return _job_bytes([(0, i) for i in range(count)])


def test_corpus_fanout(corpus):
    # Same walk scenarios as the data-plane bench, so the on-disk drive
    # cache shares the entries between the two suites.
    scenarios = [
        city_walk_scenario(OPX, (BandClass.MMWAVE,), duration_min=WALK_MIN, seed=261 + i)
        for i in range(WALKS)
    ]
    logs = run_drives(scenarios, cache=corpus.drive_cache)
    timer = Timer()

    # --- shipped bytes: pickle-per-job vs (token, index) ---
    configs = configs_for_log(OPX, (BandClass.MMWAVE,))
    prognos_jobs = [(log, 1.0, PROGNOS_STRIDE, configs, None) for log in logs]

    traces = []
    for log in logs:
        times, caps = log.capacity_series()
        full = BandwidthTrace(times_s=times - times[0], capacity_mbps=caps)
        window_s = full.duration_s / 3.0
        traces.extend(full.window(i * window_s, window_s) for i in range(3))
    play_jobs = [
        (algo, trace, None, None)
        for algo in (RateBased, FastMpc, RobustMpc, Festive)
        for trace in traces
    ]

    shipped = {}
    for name, jobs in (
        ("drives", scenarios),
        ("prognos", prognos_jobs),
        ("player", play_jobs),
    ):
        old = _job_bytes(jobs)
        new = _indexed_bytes(len(jobs))
        shipped[name] = {
            "jobs": len(jobs),
            "pickled_bytes": old,
            "indexed_bytes": new,
            "ratio": round(old / new, 1),
        }

    # --- wall-clock: fanned stages at 1 vs FAN_WORKERS workers ---
    _, serial_play = timer.timed("player_serial", lambda: play_many(play_jobs, workers=1))
    _, fanned_play = timer.timed(
        "player_fanout", lambda: play_many(play_jobs, workers=FAN_WORKERS)
    )
    assert [r.levels for r in serial_play] == [r.levels for r in fanned_play]

    _, serial_run = timer.timed(
        "prognos_serial",
        lambda: run_prognos_over_logs(logs, configs, stride=PROGNOS_STRIDE, workers=1),
    )
    _, fanned_run = timer.timed(
        "prognos_fanout",
        lambda: run_prognos_over_logs(
            logs, configs, stride=PROGNOS_STRIDE, workers=FAN_WORKERS
        ),
    )
    assert fanned_run.predictions == serial_run.predictions
    assert fanned_run.times_s.tolist() == serial_run.times_s.tolist()
    assert fanned_run.truths == serial_run.truths

    # --- supervision overhead: supervised pool pass vs the retained
    # pre-supervision reference, same jobs, same workers. Best-of-2 each
    # so a cold first pool (fork, page faults) doesn't bill supervision.
    def supervised():
        return supervised_map(_play_job, play_jobs, FAN_WORKERS)

    def unsupervised():
        return fanout_map_unsupervised(_play_job, play_jobs, FAN_WORKERS)

    sup_results = supervised()
    unsup_results = unsupervised()
    assert [r.levels for r in sup_results] == [r.levels for r in unsup_results]
    supervised_s = min(timer.timed(f"supervised_{i}", supervised)[0] for i in (1, 2))
    unsupervised_s = min(
        timer.timed(f"unsupervised_{i}", unsupervised)[0] for i in (1, 2)
    )
    supervision_overhead = supervised_s / unsupervised_s

    cpus = os.cpu_count() or 1
    serial_s = timer["player_serial"] + timer["prognos_serial"]
    fanned_s = timer["player_fanout"] + timer["prognos_fanout"]

    result = {
        "walks": WALKS,
        "walk_minutes": WALK_MIN,
        "cpus": cpus,
        "fan_workers": FAN_WORKERS,
        "shipped": shipped,
        "player_serial_s": round(timer["player_serial"], 3),
        "player_fanout_s": round(timer["player_fanout"], 3),
        "prognos_serial_s": round(timer["prognos_serial"], 3),
        "prognos_fanout_s": round(timer["prognos_fanout"], 3),
        "serial_total_s": round(serial_s, 3),
        "fanout_total_s": round(fanned_s, 3),
        "fanout_speedup": round(serial_s / fanned_s, 2),
        "supervised_s": round(supervised_s, 3),
        "unsupervised_s": round(unsupervised_s, 3),
        "supervision_overhead": round(supervision_overhead, 3),
        "smoke": SMOKE,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print_header("Corpus fan-out (zero-copy worker jobs)")
    print(f"  corpus: {WALKS} walk(s) x {WALK_MIN} min, {cpus} CPU(s)")
    for name, row in shipped.items():
        print(
            f"  {name:<8} {row['jobs']:3d} jobs: pickle-per-job "
            f"{row['pickled_bytes']:>12,} B -> indexed {row['indexed_bytes']:>6,} B "
            f"({row['ratio']:,.0f}x)"
        )
    print(
        f"  player  serial {timer['player_serial']:6.2f}s vs "
        f"{FAN_WORKERS} workers {timer['player_fanout']:6.2f}s"
    )
    print(
        f"  Prognos serial {timer['prognos_serial']:6.2f}s vs "
        f"{FAN_WORKERS} workers {timer['prognos_fanout']:6.2f}s"
    )
    print(
        f"  supervision: supervised {supervised_s:6.2f}s vs "
        f"unsupervised {unsupervised_s:6.2f}s "
        f"({supervision_overhead:.3f}x, best of 2)"
    )
    print(f"  -> {OUT_PATH.name}")

    # Acceptance: indexed jobs ship >= 10x fewer bytes than pickling the
    # payload per job, on every fan-out path. Deterministic, so always
    # enforced.
    for name, row in shipped.items():
        assert row["ratio"] >= 10.0, f"{name} shipped-bytes ratio {row['ratio']}x < 10x"
    # Acceptance: fan-out beats serial — only meaningful with real
    # parallelism, so gated off on single-CPU hosts and in smoke runs.
    if cpus >= 2 and not SMOKE:
        assert fanned_s < serial_s, (
            f"fan-out {fanned_s:.2f}s did not beat serial {serial_s:.2f}s "
            f"on a {cpus}-CPU host"
        )
    # Acceptance: supervision (timeouts, retries, incremental publish)
    # prices in at <= 5% over the pre-supervision pool pass on the warm
    # no-fault path. Timing-based, so gated like the speedup assert.
    if cpus >= 2 and not SMOKE:
        assert supervision_overhead <= 1.05, (
            f"supervised pass {supervised_s:.2f}s is "
            f"{supervision_overhead:.3f}x the unsupervised {unsupervised_s:.2f}s "
            "(> 1.05x budget)"
        )
