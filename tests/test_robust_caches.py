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
        # The fault fires at the index commit: no shard index exists.
        assert not list(tmp_path.rglob("*.json"))
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
        blob = tmp_path / "corpus" / "shard-000000.bin"
        _truncate(blob)

        assert cache.get(scenario) is None
        assert cache.store.stats["quarantined"] == 1
        assert not blob.exists()
        assert blob.with_name(blob.name + ".corrupt").exists()

        # The quarantined shard is now a cheap ordinary miss, not a
        # second decode failure.
        assert cache.get(scenario) is None
        assert cache.store.stats["quarantined"] == 1
        assert cache.stats["misses"] == 2

        # Re-simulating and re-storing heals the slot, in a new shard.
        cache.put(scenario, drive_log)
        assert (tmp_path / "corpus" / "shard-000001.bin").exists()
        healed = DriveCache(tmp_path).get(scenario)
        assert healed is not None
        assert log_to_dict(healed) == log_to_dict(drive_log)

    def test_injected_truncate_heals_on_rewrite(
        self, monkeypatch, tmp_path, scenario, drive_log
    ):
        monkeypatch.setenv("REPRO_FAULTS", "cache_truncate:times=1")
        cache = DriveCache(tmp_path)
        cache.put(scenario, drive_log)  # published, then index truncated
        assert cache.stats["stores"] == 1
        reader = DriveCache(tmp_path)
        assert reader.store.stats["quarantined"] == 1
        assert reader.get(scenario) is None

        reader.put(scenario, drive_log)  # times=1 exhausted: clean write
        healed = DriveCache(tmp_path).get(scenario)
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
    """(cache factory, entry files, lookup, equals-the-stored-content)."""
    rng = np.random.default_rng(7)
    if kind == "drive":
        DriveCache(tmp_path).put(scenario, drive_log)
        want = drive_log.columnar().content_digest()
        corpus = tmp_path / "corpus"
        return (
            lambda: DriveCache(tmp_path),  # a fresh handle reads the damage
            [corpus / "shard-000000.bin", corpus / "shard-000000.json"],
            lambda cache: cache.get(scenario),
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
            lambda: cache,
            [cache._path("radio", "k" * 8)],
            lambda cache: cache.get("radio", "k" * 8),
            lambda got: np.array_equal(got.x, stored.x)
            and np.array_equal(got.times_s, stored.times_s)
            and got.labels == stored.labels,
        )
    cache = ModelCache(tmp_path, enabled=True)
    stored = {"weights": rng.normal(size=256), "depth": 3}
    cache.put("gbc", "k" * 8, stored)
    return (
        lambda: cache,
        [cache._path("gbc", "k" * 8)],
        lambda cache: cache.get("gbc", "k" * 8),
        lambda got: np.array_equal(got["weights"], stored["weights"])
        and got["depth"] == stored["depth"],
    )


@pytest.mark.filterwarnings("ignore:Data type alias")
@pytest.mark.parametrize("kind", ["drive", "dataset", "model"])
def test_bit_flips_serve_intact_or_quarantine(tmp_path, scenario, drive_log, kind):
    make_cache, paths, lookup, intact = _stored_entry(
        kind, tmp_path, scenario, drive_log
    )
    originals = {path: path.read_bytes() for path in paths}
    directory = paths[0].parent
    for path, original in originals.items():
        offsets = np.unique(np.linspace(0, len(original) - 1, FLIPS).astype(int))
        for i, offset in enumerate(offsets.tolist()):
            damaged = bytearray(original)
            damaged[offset] ^= 1 << (i % 8)
            for leftover in directory.iterdir():
                leftover.unlink()
            for entry, data in originals.items():
                entry.write_bytes(bytes(damaged) if entry == path else data)
            cache = make_cache()
            before = dict(cache.stats)
            got = lookup(cache)
            where = f"bit {i % 8} of byte {offset}/{len(original)} of {path.name}"
            if got is not None:
                assert intact(got), f"{where} changed the served content"
                assert cache.stats["hits"] == before["hits"] + 1, where
                continue
            assert cache.stats["misses"] == before["misses"] + 1, where
            if kind == "drive":
                # A damaged shard reads as corrupt, quarantined, stale
                # or (a flipped drive id) absent; a re-put heals it.
                cache.put(scenario, drive_log)
                healed = lookup(make_cache())
                assert healed is not None and intact(healed), where
            else:
                assert cache.stats["corrupt"] == before["corrupt"] + 1, where
                assert path.with_name(path.name + ".corrupt").exists(), where
