"""Self-healing caches: counted write failures and quarantined entries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.dataset_cache import DatasetCache
from repro.ml.features import LabeledDataset
from repro.ml.model_cache import ModelCache
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust import faults
from repro.rrc.taxonomy import HandoverType
from repro.simulate.cache import DriveCache
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def scenario():
    return freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=61)


@pytest.fixture(scope="module")
def drive_log(scenario):
    return scenario.run()


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class TestDriveCache:
    def test_write_fault_degrades_to_counted_noop(
        self, monkeypatch, tmp_path, scenario, drive_log
    ):
        monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
        cache = DriveCache(tmp_path)
        cache.put(scenario, drive_log)
        assert cache.stats["put_failures"] == 1
        assert cache.stats["stores"] == 0
        assert not any(tmp_path.iterdir())
        assert cache.get(scenario) is None

    def test_run_drives_survives_write_faults(
        self, monkeypatch, tmp_path, scenario, drive_log
    ):
        monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
        cache = DriveCache(tmp_path)
        (log,) = run_drives([scenario], workers=1, cache=cache)
        assert log_to_dict(log) == log_to_dict(drive_log)
        assert cache.stats["put_failures"] == 1
        assert cache.stats["stores"] == 0

    def test_truncated_entry_quarantined_exactly_once(
        self, tmp_path, scenario, drive_log
    ):
        cache = DriveCache(tmp_path)
        cache.put(scenario, drive_log)
        path = cache._path(cache.key_for(scenario))
        _truncate(path)

        assert cache.get(scenario) is None
        assert cache.stats["corrupt"] == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

        # The quarantined entry is now a cheap ordinary miss, not a
        # second decode failure.
        assert cache.get(scenario) is None
        assert cache.stats["corrupt"] == 1
        assert cache.stats["misses"] == 2

        # Re-simulating and re-storing heals the slot.
        cache.put(scenario, drive_log)
        healed = cache.get(scenario)
        assert healed is not None
        assert log_to_dict(healed) == log_to_dict(drive_log)

    def test_injected_truncate_heals_on_rewrite(
        self, monkeypatch, tmp_path, scenario, drive_log
    ):
        monkeypatch.setenv("REPRO_FAULTS", "cache_truncate:times=1")
        cache = DriveCache(tmp_path)
        cache.put(scenario, drive_log)  # published, then corrupted
        assert cache.stats["stores"] == 1
        assert cache.get(scenario) is None
        assert cache.stats["corrupt"] == 1

        cache.put(scenario, drive_log)  # times=1 exhausted: clean write
        healed = cache.get(scenario)
        assert healed is not None
        assert log_to_dict(healed) == log_to_dict(drive_log)


@pytest.fixture(scope="module")
def dataset():
    return LabeledDataset(
        np.arange(12, dtype=float).reshape(4, 3),
        [HandoverType.SCGA, HandoverType.SCGR, HandoverType.SCGA, HandoverType.SCGR],
        np.linspace(0.0, 1.5, 4),
    )


class TestDatasetCache:
    def test_write_fault_degrades_to_counted_noop(self, monkeypatch, tmp_path, dataset):
        monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
        cache = DatasetCache(tmp_path, enabled=True)
        cache.put("radio", "k" * 8, dataset)
        assert cache.stats["put_failures"] == 1
        assert cache.stats["stores"] == 0
        assert cache.get("radio", "k" * 8) is None

    def test_truncated_entry_quarantined_then_healed(self, tmp_path, dataset):
        cache = DatasetCache(tmp_path, enabled=True)
        cache.put("radio", "k" * 8, dataset)
        path = cache._path("radio", "k" * 8)
        _truncate(path)

        assert cache.get("radio", "k" * 8) is None
        assert cache.stats["corrupt"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

        cache.put("radio", "k" * 8, dataset)
        healed = cache.get("radio", "k" * 8)
        assert healed is not None
        assert np.array_equal(healed.x, dataset.x)
        assert healed.labels == dataset.labels


class TestModelCache:
    def test_write_fault_degrades_to_counted_noop(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
        cache = ModelCache(tmp_path, enabled=True)
        cache.put("gbc", "k" * 8, {"weights": [1, 2, 3]})
        assert cache.stats["put_failures"] == 1
        assert cache.stats["stores"] == 0
        assert cache.get("gbc", "k" * 8) is None

    def test_garbage_entry_quarantined_then_healed(self, tmp_path):
        cache = ModelCache(tmp_path, enabled=True)
        model = {"weights": np.arange(4)}
        cache.put("gbc", "k" * 8, model)
        path = cache._path("gbc", "k" * 8)
        path.write_bytes(b"not a gzip stream")  # BadGzipFile, an OSError subclass

        assert cache.get("gbc", "k" * 8) is None
        assert cache.stats["corrupt"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

        cache.put("gbc", "k" * 8, model)
        healed = cache.get("gbc", "k" * 8)
        assert healed is not None
        assert np.array_equal(healed["weights"], model["weights"])

    def test_truncated_gzip_is_quarantined(self, tmp_path):
        cache = ModelCache(tmp_path, enabled=True)
        cache.put("gbc", "k" * 8, {"weights": list(range(64))})
        path = cache._path("gbc", "k" * 8)
        _truncate(path)
        assert cache.get("gbc", "k" * 8) is None
        assert cache.stats["corrupt"] == 1


# ---------------------------------------------------------------------------
# Integrity: a bit-flipped entry is served intact or missed, never altered
# ---------------------------------------------------------------------------

#: Single-bit flips per entry, spread evenly from the first to the last byte.
FLIPS = 48


def _stored_entry(kind, tmp_path, scenario, drive_log):
    """(cache, entry path, lookup, equals-the-stored-content predicate)."""
    rng = np.random.default_rng(7)
    if kind == "drive":
        cache = DriveCache(tmp_path, store=None)
        cache.put(scenario, drive_log)
        want = drive_log.columnar().content_digest()
        return (
            cache,
            cache._path(cache.key_for(scenario)),
            lambda: cache.get(scenario),
            lambda got: got.columnar().content_digest() == want,
        )
    if kind == "dataset":
        cache = DatasetCache(tmp_path, enabled=True)
        stored = LabeledDataset(
            rng.normal(size=(64, 5)),
            [HandoverType.SCGA, HandoverType.SCGR] * 32,
            np.linspace(0.0, 6.3, 64),
        )
        cache.put("radio", "k" * 8, stored)
        return (
            cache,
            cache._path("radio", "k" * 8),
            lambda: cache.get("radio", "k" * 8),
            lambda got: np.array_equal(got.x, stored.x)
            and np.array_equal(got.times_s, stored.times_s)
            and got.labels == stored.labels,
        )
    cache = ModelCache(tmp_path, enabled=True)
    stored = {"weights": rng.normal(size=256), "depth": 3}
    cache.put("gbc", "k" * 8, stored)
    return (
        cache,
        cache._path("gbc", "k" * 8),
        lambda: cache.get("gbc", "k" * 8),
        lambda got: np.array_equal(got["weights"], stored["weights"])
        and got["depth"] == stored["depth"],
    )


@pytest.mark.parametrize("kind", ["drive", "dataset", "model"])
def test_bit_flips_serve_intact_or_quarantine(tmp_path, scenario, drive_log, kind):
    cache, path, lookup, intact = _stored_entry(kind, tmp_path, scenario, drive_log)
    original = path.read_bytes()
    quarantined = path.with_name(path.name + ".corrupt")
    offsets = np.unique(np.linspace(0, len(original) - 1, FLIPS).astype(int))
    for i, offset in enumerate(offsets.tolist()):
        damaged = bytearray(original)
        damaged[offset] ^= 1 << (i % 8)
        path.write_bytes(bytes(damaged))
        before = dict(cache.stats)
        got = lookup()
        where = f"bit {i % 8} of byte {offset}/{len(original)}"
        if got is None:
            assert cache.stats["corrupt"] == before["corrupt"] + 1, where
            assert cache.stats["misses"] == before["misses"] + 1, where
            assert not path.exists() and quarantined.exists(), where
            quarantined.unlink()
        else:
            assert intact(got), f"{where} changed the served content"
            assert cache.stats["hits"] == before["hits"] + 1, where
