"""End-to-end smoke under live fault injection.

Unlike the other ``test_robust_*`` modules this one does NOT clear
``REPRO_FAULTS``: the CI fault-injection job exports a crash spec and
runs this file to prove the real pipelines — drive simulation, VoD
playback, Prognos evaluation, Table 3 — come back bit-identical
anyway. With no faults exported it doubles as a plain supervised-path
equivalence smoke, so it is meaningful in every matrix leg.

The fault-free references are the ``workers=1`` serial paths: serial
execution never enters a worker process, so the worker fault hooks
cannot touch it.
"""

from __future__ import annotations

import numpy as np

import pytest

from repro.apps.abr.algorithms import RateBased
from repro.apps.abr.player import play_many
from repro.core.evaluation import configs_for_log, run_prognos_over_logs, table3
from repro.net.emulation import BandwidthTrace
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust.supervisor import last_run_stats
from repro.simulate.cache import DriveCache
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict


def _scenarios():
    return [
        freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=71),
        freeway_scenario(OPX, None, length_km=1.0, seed=72),
        freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=73),
    ]


@pytest.fixture(scope="module")
def serial_logs():
    return run_drives(_scenarios(), workers=1, use_cache=False)


def test_run_drives_matches_serial_under_faults(serial_logs):
    parallel = run_drives(_scenarios(), workers=2, use_cache=False)
    assert len(parallel) == len(serial_logs)
    for a, b in zip(serial_logs, parallel):
        assert log_to_dict(a) == log_to_dict(b)


def test_play_many_matches_serial_under_faults():
    def trace(seed):
        rng = np.random.default_rng(seed)
        caps = np.abs(rng.normal(40.0, 25.0, 1200))
        caps[rng.random(1200) < 0.05] = 0.0
        return BandwidthTrace(times_s=np.arange(1200) * 0.05, capacity_mbps=caps)

    jobs = [(RateBased, trace(seed), None, None) for seed in (81, 82, 83)]
    serial = play_many(jobs, workers=1)
    parallel = play_many(jobs, workers=2)
    for a, b in zip(serial, parallel):
        assert a.levels == b.levels
        assert a.stall_s == b.stall_s
        assert a.mean_bitrate_mbps == b.mean_bitrate_mbps


def test_prognos_matches_serial_under_faults(mmwave_walk_log, freeway_low_log):
    logs = [mmwave_walk_log, freeway_low_log]
    configs = configs_for_log(OPX, (BandClass.MMWAVE, BandClass.LOW))
    serial = run_prognos_over_logs(logs, configs, stride=8, workers=1)
    fanned = run_prognos_over_logs(logs, configs, stride=8, workers=2)
    assert last_run_stats().jobs == len(logs)  # the pass went through a pool
    assert serial.times_s.tolist() == fanned.times_s.tolist()
    assert serial.predictions == fanned.predictions
    assert serial.truths == fanned.truths
    assert serial.events == fanned.events
    assert serial.lead_times_s == fanned.lead_times_s


def test_table3_matches_serial_under_faults(monkeypatch, freeway_low_log):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # every cell trains, both runs
    datasets = {"FW": [freeway_low_log]}
    bands = {"FW": (BandClass.LOW,)}
    serial = table3(datasets, OPX, bands, workers=1)
    assert [row.method for row in serial] == ["GBC", "Stacked LSTM", "Prognos"]
    assert table3(datasets, OPX, bands, workers=2) == serial
    assert last_run_stats().jobs == 3  # the pass went through a pool


def test_crash_mid_corpus_still_populates_cache(
    monkeypatch, tmp_path, serial_logs
):
    """A worker crash on one drive loses nothing: the run completes,
    every log is bit-identical to the serial reference, and every drive
    — including the crashed-and-retried one — lands in the cache."""
    monkeypatch.setenv("REPRO_FAULTS", "worker_crash:key=1:attempts=1")
    scenarios = _scenarios()
    cache = DriveCache(tmp_path)
    logs = run_drives(scenarios, workers=2, cache=cache)
    for a, b in zip(serial_logs, logs):
        assert log_to_dict(a) == log_to_dict(b)
    assert cache.stats["stores"] == len(scenarios)
    assert cache.stats["put_failures"] == 0

    monkeypatch.delenv("REPRO_FAULTS")
    warm = DriveCache(tmp_path)
    again = run_drives(scenarios, workers=2, cache=warm)
    assert warm.stats["hits"] == len(scenarios)
    for a, b in zip(serial_logs, again):
        assert log_to_dict(a) == log_to_dict(b)
