"""supervised_map: equivalence, recovery ladder, and incremental publish."""

from __future__ import annotations

import os
import time
import warnings

import pytest

from repro import settings
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust import faults, supervisor
from repro.robust.supervisor import (
    backoff_s,
    job_timeout_s,
    last_run_stats,
    supervised_map,
)
from repro.simulate.scenarios import freeway_scenario

NUMERIC_KNOBS = [s for s in settings.SETTINGS.values() if s.type in (int, float)]


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FORCE_SPAWN", raising=False)
    monkeypatch.delenv("REPRO_JOB_TIMEOUT_S", raising=False)
    faults.reset()
    yield
    faults.reset()


def _square(x):
    return x * x


def _square_and_pid(x):
    return x * x, os.getpid()


def _call(job):
    return job()


def _raise_on_13(x):
    if x == 13:
        raise ValueError("job 3 is genuinely broken")
    return x * x


def _values(n=12):
    return [10 + i for i in range(n)]


def _map_squares(workers, n=12, **kwargs):
    return supervised_map(_square, _values(n), workers, **kwargs)


def _assert_runs_in_process(workers, n):
    """No pool: in-process, in job order, ``last_run_stats`` untouched."""
    _map_squares(2, n=4)  # leave a pool's stats behind to compare with
    before = last_run_stats()
    published = []
    out = supervised_map(
        _square_and_pid,
        _values(n),
        workers,
        on_result=lambda i, r: published.append((i, r)),
    )
    expected = [(v**2, os.getpid()) for v in _values(n)]
    assert out == expected
    assert published == list(enumerate(expected))
    assert last_run_stats() is before


class TestEquivalence:
    def test_matches_unsupervised_fork(self):
        if supervisor.fork_context() is None:
            pytest.skip("fork start method unavailable")
        values = _values()
        expected = supervisor.fanout_map_unsupervised(_square, values, 3)
        assert _map_squares(3) == expected == [v**2 for v in values]
        stats = last_run_stats()
        assert stats.start_method == "fork"
        assert stats.published == len(values)
        assert stats.pool_rebuilds == stats.timeouts == stats.serial_jobs == 0

    def test_fork_ships_indices_not_jobs(self):
        if supervisor.fork_context() is None:
            pytest.skip("fork start method unavailable")
        # Lambdas cannot be pickled: the pass only works if the forked
        # workers read the jobs from their inherited registry.
        jobs = [lambda v=v: v * v for v in _values(6)]
        assert supervised_map(_call, jobs, 2) == [v**2 for v in _values(6)]
        assert last_run_stats().serial_jobs == 0

    def test_force_spawn_matches_and_keeps_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_SPAWN", "1")
        values = _values()
        expected = supervisor.fanout_map_unsupervised(_square, values, 2)
        assert _map_squares(2) == expected == [v**2 for v in values]
        assert last_run_stats().start_method == "spawn"

    def test_workers_one_runs_serial_in_process(self):
        _assert_runs_in_process(1, 12)

    def test_single_job_runs_serial(self):
        _assert_runs_in_process(8, 1)


class TestIncrementalPublish:
    def test_on_result_fires_per_job_in_parent(self):
        published = []
        out = _map_squares(2, on_result=lambda i, r: published.append((i, r)))
        assert sorted(published) == [(i, v**2) for i, v in enumerate(_values())]
        assert out == [v**2 for v in _values()]

    def test_completed_jobs_publish_before_a_bad_job_raises(self):
        if supervisor.fork_context() is None:
            pytest.skip("fork start method unavailable")
        published = []
        with pytest.raises(ValueError, match="genuinely broken"):
            supervised_map(
                _raise_on_13,
                _values(8),
                2,
                on_result=lambda i, r: published.append(i),
                retries=0,
            )
        # Every healthy job finished its round and was published before
        # the serial rerun of the broken one surfaced the real error.
        assert sorted(published) == [i for i in range(8) if i != 3]


class TestRecovery:
    def test_crash_everywhere_degrades_to_serial(self, monkeypatch):
        if supervisor.fork_context() is None:
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:p=1:seed=5")
        published = []
        out = _map_squares(2, n=8, on_result=lambda i, r: published.append(i))
        assert out == [v**2 for v in _values(8)]
        stats = last_run_stats()
        assert stats.pool_rebuilds == supervisor.MAX_POOL_REBUILDS
        assert stats.serial_jobs == 8
        assert sorted(published) == list(range(8))

    def test_targeted_crash_recovers_via_retry(self, monkeypatch):
        if supervisor.fork_context() is None:
            pytest.skip("fork start method unavailable")
        # Fires only on job 3's first attempt: one pool death, then the
        # retry goes through a rebuilt pool.
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:key=3:attempts=1")
        out = _map_squares(2, n=8)
        assert out == [v**2 for v in _values(8)]
        stats = last_run_stats()
        assert stats.pool_rebuilds == 1
        assert stats.retried_jobs >= 1

    def test_hang_hits_timeout_and_is_retried(self, monkeypatch):
        if supervisor.fork_context() is None:
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_FAULTS", "worker_hang:key=2:attempts=1:hang_s=30")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "1")
        values = _values(6)
        start = time.monotonic()
        out = supervised_map(_square, values, 2, retries=2)
        elapsed = time.monotonic() - start
        assert out == [v**2 for v in values]
        stats = last_run_stats()
        assert stats.timeouts >= 1
        assert stats.pool_rebuilds >= 1
        # The 30 s hang must have been preempted, not waited out.
        assert elapsed < 20.0


class TestKnobs:
    @pytest.fixture(autouse=True)
    def _fresh_warnings(self, monkeypatch):
        # Warn-once is per process; each case starts with a clean slate.
        monkeypatch.setattr(settings, "_warned", set())

    def test_timeout_env(self, monkeypatch):
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "2.5")
        assert job_timeout_s() == 2.5
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "0")
        assert job_timeout_s() is None
        for bad in ("soon", "nan", "inf", "-1"):
            monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", bad)
            with pytest.warns(RuntimeWarning, match="REPRO_JOB_TIMEOUT_S"):
                assert job_timeout_s() is None

    @pytest.mark.parametrize("raw", ["nan", "inf", "-5", "lots"])
    @pytest.mark.parametrize("setting", NUMERIC_KNOBS, ids=lambda s: s.name)
    def test_numeric_knob_warns_once_and_defaults(self, monkeypatch, setting, raw):
        monkeypatch.delenv(setting.name, raising=False)
        default = settings.get(setting.name)
        monkeypatch.setenv(setting.name, raw)
        with pytest.warns(RuntimeWarning, match=setting.name):
            assert settings.get(setting.name) == default
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert settings.get(setting.name) == default

    def test_infinite_timeout_runs_untimed(self, monkeypatch):
        from repro.simulate.runner import run_drives

        scenarios = [
            freeway_scenario(OPX, BandClass.LOW, length_km=0.3, seed=seed)
            for seed in (3, 4)
        ]
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "inf")
        with pytest.warns(RuntimeWarning, match="REPRO_JOB_TIMEOUT_S"):
            logs = run_drives(scenarios, workers=2, use_cache=False)
        assert last_run_stats().jobs == 2
        assert [log.columnar().content_digest() for log in logs] == [
            s.run().columnar().content_digest() for s in scenarios
        ]

    def test_backoff_deterministic_and_bounded(self):
        assert backoff_s(1, salt=4) == backoff_s(1, salt=4)
        assert backoff_s(1, salt=4) != backoff_s(1, salt=5)
        for round_no in range(8):
            delay = backoff_s(round_no, salt=3)
            assert 0 < delay <= supervisor.BACKOFF_BASE_S * 8 * 1.5

    def test_default_workers_warns_on_bad_value(self, monkeypatch):
        from repro.simulate.runner import default_workers

        monkeypatch.setenv("REPRO_BENCH_WORKERS", "three")
        with pytest.warns(RuntimeWarning, match="REPRO_BENCH_WORKERS"):
            assert default_workers() == 1
