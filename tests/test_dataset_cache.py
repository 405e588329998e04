"""The derived-dataset cache: round trips, knobs, and invalidation.

Complements test_runner_cache.py (drive logs) for the dataset layer:
feature matrices must round-trip losslessly, honour the shared
``REPRO_*`` knobs, and — the part that silently corrupts results when
missing — invalidate when either the input logs or the feature-
extraction code change.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.simulate.cache as simulate_cache
from repro.ml.dataset_cache import (
    DatasetCache,
    build_cached,
    log_content_digest,
)
from repro.ml.features import LabeledDataset, build_radio_feature_dataset
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate.scenarios import freeway_scenario


@pytest.fixture(scope="module")
def logs():
    return [freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=41).run()]


@pytest.fixture(scope="module")
def dataset(logs):
    return build_radio_feature_dataset(logs, stride=10)


def _cache(tmp_path) -> DatasetCache:
    return DatasetCache(tmp_path, enabled=True)


def test_round_trip_is_lossless(tmp_path, logs, dataset):
    cache = _cache(tmp_path)
    key = cache.key_for("radio", logs, {"stride": 10})
    assert cache.get("radio", key) is None
    cache.put("radio", key, dataset)
    assert cache.stats == {
        "hits": 0,
        "misses": 1,
        "stores": 1,
        "put_failures": 0,
        "corrupt": 0,
    }

    warm = _cache(tmp_path)
    loaded = warm.get("radio", key)
    assert loaded is not None
    assert np.array_equal(loaded.x, dataset.x)
    assert np.array_equal(loaded.times_s, dataset.times_s)
    assert loaded.labels == dataset.labels
    assert warm.stats == {
        "hits": 1,
        "misses": 0,
        "stores": 0,
        "put_failures": 0,
        "corrupt": 0,
    }


def test_build_cached_skips_builder_on_hit(tmp_path, logs, dataset):
    cache = _cache(tmp_path)
    calls = []

    def builder():
        calls.append(1)
        return dataset

    first = build_cached("radio", builder, logs, {"stride": 10}, cache=cache)
    second = build_cached("radio", builder, logs, {"stride": 10}, cache=cache)
    assert len(calls) == 1
    assert np.array_equal(first.x, second.x)
    assert cache.stats == {
        "hits": 1,
        "misses": 1,
        "stores": 1,
        "put_failures": 0,
        "corrupt": 0,
    }


def test_key_tracks_params_logs_and_kind(tmp_path, logs):
    cache = _cache(tmp_path)
    base = cache.key_for("radio", logs, {"stride": 10})
    assert cache.key_for("radio", logs, {"stride": 5}) != base
    assert cache.key_for("location-seq", logs, {"stride": 10}) != base
    other = [freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=42).run()]
    assert cache.key_for("radio", other, {"stride": 10}) != base
    # Same content, fresh object: the digest is content-addressed.
    replay = [freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=41).run()]
    assert cache.key_for("radio", replay, {"stride": 10}) == base
    assert log_content_digest(replay[0]) == log_content_digest(logs[0])


def test_code_version_invalidates_entries(tmp_path, logs, dataset, monkeypatch):
    """Editing a feature-extraction constant must change the digest.

    The key embeds the package-wide code-version token; simulating a
    source edit by repointing the memoized token must route the next
    lookup to a different entry (a miss), never serve the stale matrix.
    """
    cache = _cache(tmp_path)
    old_key = cache.key_for("radio", logs, {"stride": 10})
    cache.put("radio", old_key, dataset)

    monkeypatch.setattr(simulate_cache, "_code_version_token", "post-edit-token")
    new_key = cache.key_for("radio", logs, {"stride": 10})
    assert new_key != old_key
    assert cache.get("radio", new_key) is None

    built = []
    build_cached(
        "radio", lambda: built.append(1) or dataset, logs, {"stride": 10}, cache=cache
    )
    assert built  # rebuilt, not served stale


def test_no_cache_env_disables(tmp_path, monkeypatch, logs, dataset):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = DatasetCache()
    assert not cache.enabled
    key = cache.key_for("radio", logs, {"stride": 10})
    cache.put("radio", key, dataset)
    assert not (tmp_path / "datasets").exists()
    assert cache.get("radio", key) is None
    assert cache.stats == {
        "hits": 0,
        "misses": 1,
        "stores": 0,
        "put_failures": 0,
        "corrupt": 0,
    }


def test_cache_dir_env_relocates(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = DatasetCache()
    assert cache.root == tmp_path / "elsewhere" / "datasets"
    assert cache.enabled


def test_corrupt_entry_is_a_miss(tmp_path, logs, dataset):
    cache = _cache(tmp_path)
    key = cache.key_for("radio", logs, {"stride": 10})
    cache.put("radio", key, dataset)
    path = cache._path("radio", key)
    path.write_bytes(b"not an npz archive")
    assert cache.get("radio", key) is None
    assert cache.stats["misses"] == 1


def test_view_keys_digest_each_drive_once(tmp_path, logs, monkeypatch):
    """The GBC and LSTM keys over one corpus view hash each drive once."""
    from repro.simulate import corpus
    from repro.simulate.columnar import ColumnarLog
    from tests.conftest import make_optional_field_log

    store = corpus.CorpusStore(tmp_path / "corpus", enabled=True)
    store.append("a", logs[0].columnar())
    store.append("b", make_optional_field_log().columnar())
    view = corpus.CorpusView(store.root, ["a", "b"])
    digests = []
    original = ColumnarLog.content_digest

    def counted(self):
        digests.append(self)
        return original(self)

    monkeypatch.setattr(ColumnarLog, "content_digest", counted)
    cache = _cache(tmp_path)
    try:
        gbc = cache.key_for("radio", view, {"stride": 5})
        lstm = cache.key_for("location-seq", view, {"stride": 10})
        assert len(digests) == 2
        # The same keys as over the drives as logs.
        drives = [view[0], view[1]]
        assert cache.key_for("radio", drives, {"stride": 5}) == gbc
        assert cache.key_for("location-seq", drives, {"stride": 10}) == lstm
    finally:
        corpus._PROCESS_STORES.pop(str(store.root), None)
