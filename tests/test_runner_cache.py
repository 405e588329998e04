"""run_drives determinism and the on-disk corpus cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.radio.bands import BandClass
from repro.radio.rrs import RadioEnvironment
from repro.ran import OPX
from repro.robust.supervisor import fork_context
from repro.simulate.cache import DriveCache, atomic_publish, scenario_fingerprint
from repro.simulate.corpus import LOCK_NAME
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict


def _scenarios():
    return [
        freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=31),
        freeway_scenario(OPX, None, length_km=1.5, seed=32),
    ]


@pytest.fixture(scope="module")
def serial_logs():
    return run_drives(_scenarios(), workers=1, use_cache=False)


def test_parallel_matches_serial(serial_logs):
    parallel = run_drives(_scenarios(), workers=4, use_cache=False)
    assert len(parallel) == len(serial_logs)
    for a, b in zip(serial_logs, parallel):
        assert log_to_dict(a) == log_to_dict(b)


def test_cache_round_trip(tmp_path, serial_logs):
    scenarios = _scenarios()
    cache = DriveCache(tmp_path)
    first = run_drives(scenarios, workers=1, cache=cache)
    assert cache.stats == {
        "hits": 0,
        "misses": 2,
        "stores": 2,
        "put_failures": 0,
        "corrupt": 0,
    }
    # Drives live only in the cache's corpus store.
    assert [p.name for p in tmp_path.iterdir()] == ["corpus"]
    assert sorted(p.name for p in (tmp_path / "corpus").iterdir()) == [
        LOCK_NAME,
        "shard-000000.bin",
        "shard-000000.json",
    ]
    assert sorted(cache.store.drive_ids()) == sorted(
        DriveCache.key_for(s) for s in scenarios
    )

    warm = DriveCache(tmp_path)
    second = run_drives(scenarios, workers=1, cache=warm)
    assert warm.stats == {
        "hits": 2,
        "misses": 0,
        "stores": 0,
        "put_failures": 0,
        "corrupt": 0,
    }
    for a, b, c in zip(serial_logs, first, second):
        assert log_to_dict(a) == log_to_dict(b) == log_to_dict(c)


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "relocated"))
    cache = DriveCache()
    assert cache.root == tmp_path / "relocated"
    assert cache.enabled


def test_no_cache_env(tmp_path, monkeypatch, serial_logs):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = DriveCache()
    assert not cache.enabled
    scenario = _scenarios()[0]
    cache.put(scenario, serial_logs[0])
    assert not tmp_path.exists() or not list(tmp_path.iterdir())
    assert cache.get(scenario) is None
    assert cache.stats["misses"] == 1


def _hammer_put(root, repeats):
    # Child-process body for the concurrent-writer stress test. Rebuilds
    # the scenario/log locally so nothing large crosses the fork.
    scenario = _scenarios()[0]
    log = scenario.run()
    cache = DriveCache(root)
    for _ in range(repeats):
        cache.put(scenario, log)


def test_concurrent_writers_same_key(tmp_path, serial_logs):
    """Two processes hammer ``put`` on one key; one payload is committed."""
    ctx = fork_context()
    if ctx is None:
        pytest.skip("fork start method unavailable")
    children = [
        ctx.Process(target=_hammer_put, args=(tmp_path, 5)) for _ in range(2)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
        assert child.exitcode == 0
    scenario = _scenarios()[0]
    corpus = tmp_path / "corpus"
    leftovers = [p.name for p in corpus.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []
    (index_path,) = corpus.glob("shard-*.json")
    meta = json.loads(index_path.read_text())
    assert list(meta["drives"]) == [DriveCache.key_for(scenario)]
    assert index_path.with_suffix(".bin").stat().st_size == meta["committed_bytes"]
    survivor = DriveCache(tmp_path).get(scenario)
    assert survivor is not None
    assert log_to_dict(survivor) == log_to_dict(serial_logs[0])


def test_atomic_publish_cleans_up_on_failure(tmp_path):
    target = tmp_path / "entry.npz"
    with pytest.raises(RuntimeError):
        with atomic_publish(target) as tmp:
            tmp.write_bytes(b"partial")
            raise RuntimeError("writer died")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_publish_temp_names_unique(tmp_path):
    target = tmp_path / "entry.npz"
    seen = set()
    for _ in range(8):
        with atomic_publish(target) as tmp:
            seen.add(tmp.name)
            tmp.write_bytes(b"payload")
    assert len(seen) == 8
    assert target.read_bytes() == b"payload"


def test_fingerprint_tracks_inputs():
    a, b = _scenarios()
    assert DriveCache.key_for(a) != DriveCache.key_for(b)
    same = freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=31)
    assert DriveCache.key_for(a) == DriveCache.key_for(same)
    fp = scenario_fingerprint(a)
    assert fp["seed"] == 31 and fp["code_version"]


def test_eviction_bounds_tracked_cells():
    cells = freeway_scenario(OPX, BandClass.LOW, length_km=4.0, seed=9).deployment.cells
    assert len(cells) >= 8
    env = RadioEnvironment(np.random.default_rng(3), evict_after_measures=4)
    for cell in cells:
        env.register(cell, cell.band, cell.eirp_dbm)
    assert env.tracked_cells == len(cells)
    near = cells[:2]
    distances = np.full((1, len(near)), 200.0)
    for step in range(64):
        env.measure_block(near, distances, np.array([float(step)]))
    assert env.tracked_cells == len(near)
