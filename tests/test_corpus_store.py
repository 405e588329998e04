"""CorpusStore: sharded memmap slices, resumable appends, failure modes."""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate import fanout
from repro.simulate.cache import DriveCache
from repro.simulate.columnar import ARRAY_KEYS
from repro.simulate.corpus import CorpusStore, CorpusView, DriveRef
from repro.simulate.runner import run_drives, run_drives_to_store
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict
from tests.conftest import make_optional_field_log


def _sample_logs():
    return {
        "d1": make_optional_field_log(bearer=BearerMode.FIVE_G_ONLY, band=BandClass.MMWAVE),
        "d2": make_optional_field_log(),
        "d3": make_optional_field_log(band=BandClass.LOW),
    }


def _filled_store(root, **kwargs):
    store = CorpusStore(root, enabled=True, **kwargs)
    logs = _sample_logs()
    for drive_id, log in logs.items():
        assert store.append(drive_id, log.columnar())
    return store, logs


def _scenarios():
    return [
        freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=41),
        freeway_scenario(OPX, None, length_km=1.5, seed=42),
        freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=43),
    ]


class TestRoundTrip:
    def test_slices_bit_identical(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        for drive_id, log in logs.items():
            clog = store.open_slice(drive_id)
            assert clog.content_digest() == log.columnar().content_digest()
            assert log_to_dict(clog.to_drive_log()) == log_to_dict(log)

    def test_simulated_drive_matches_npz_roundtrip(self, tmp_path, freeway_low_log):
        """Memmap-backed logs stay bit-identical to the .npz codec."""
        from repro.simulate.columnar import load_columnar, save_columnar

        npz = tmp_path / "drive.npz"
        with open(npz, "wb") as fh:
            save_columnar(freeway_low_log.columnar(), fh)
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        store.append("drive", freeway_low_log.columnar())
        mapped = store.open_slice("drive")
        via_npz = load_columnar(npz)
        assert mapped.content_digest() == via_npz.content_digest()
        assert log_to_dict(mapped.to_drive_log()) == log_to_dict(
            via_npz.to_drive_log()
        )

    def test_views_read_only_and_survive_reopen(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        clog = CorpusStore(tmp_path, enabled=True).open_slice("d1")
        for key in ARRAY_KEYS:
            assert not clog.arrays[key].flags.writeable
            # Plain ndarray views over the mapping, not np.memmap ones.
            assert type(clog.arrays[key]) is np.ndarray
        with pytest.raises((ValueError, RuntimeError)):
            clog.arrays["tick_time_s"][0] = 99.0
        # The views outlive every store handle: drop both stores, the
        # arrays still read (they hold the mapping themselves).
        digest = clog.content_digest()
        del store
        assert clog.content_digest() == digest
        # And a fresh handle over the same files serves identical bytes.
        again = CorpusStore(tmp_path, enabled=True).open_slice("d1")
        assert again.content_digest() == digest

    def test_exactly_once_append(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        assert not store.append("d1", logs["d1"].columnar())
        assert store.stats["appends"] == 3
        assert store.stats["duplicates"] == 1
        # Duplicate appends in a *fresh* handle are no-ops too.
        reopened = CorpusStore(tmp_path, enabled=True)
        assert not reopened.append("d2", logs["d2"].columnar())
        assert reopened.stats["duplicates"] == 1

    def test_shard_rollover(self, tmp_path):
        store, _ = _filled_store(tmp_path, shard_mb=1e-6)
        assert store.stats["shards"] == 3
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "shard-000000.bin",
            "shard-000000.json",
            "shard-000001.bin",
            "shard-000001.json",
            "shard-000002.bin",
            "shard-000002.json",
        ]
        reopened = CorpusStore(tmp_path, enabled=True)
        assert sorted(reopened.drive_ids()) == ["d1", "d2", "d3"]

    def test_disabled_store_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = CorpusStore(tmp_path)
        assert not store.enabled
        assert not store.append("d1", make_optional_field_log().columnar())
        assert store.open_slice("d1") is None
        assert not tmp_path.exists() or not list(tmp_path.iterdir())

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
        store = CorpusStore.from_env()
        assert store.root == tmp_path / "corpus"
        monkeypatch.delenv("REPRO_CORPUS_DIR")
        assert CorpusStore.from_env() is None
        # Explicit construction without the env var lands next to the
        # drive cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert CorpusStore().root == tmp_path / "cache" / "corpus"


class TestFailureModes:
    def test_truncated_shard_quarantined_as_miss(self, tmp_path):
        _filled_store(tmp_path)
        blob = tmp_path / "shard-000000.bin"
        blob.write_bytes(blob.read_bytes()[:100])
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 1
        assert store.open_slice("d1") is None
        assert store.stats["misses"] == 1
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["shard-000000.bin.corrupt", "shard-000000.json.corrupt"]

    def test_index_shard_mismatch_detected(self, tmp_path):
        _filled_store(tmp_path)
        index_path = tmp_path / "shard-000000.json"
        meta = json.loads(index_path.read_text())
        # An entry that points past the committed extent is a lying
        # index, not a short blob.
        drive = next(iter(meta["drives"]))
        meta["drives"][drive]["offset"] = meta["committed_bytes"]
        index_path.write_text(json.dumps(meta))
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 1
        assert len(store) == 0

    def test_corrupt_index_json_quarantined(self, tmp_path):
        _filled_store(tmp_path)
        (tmp_path / "shard-000000.json").write_text("{not json")
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 1
        assert store.open_slice("d2") is None

    def test_stale_format_version_skipped_not_quarantined(self, tmp_path):
        _filled_store(tmp_path)
        index_path = tmp_path / "shard-000000.json"
        meta = json.loads(index_path.read_text())
        meta["format_version"] = 999
        index_path.write_text(json.dumps(meta))
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["stale_shards"] == 1
        assert store.stats["quarantined"] == 0
        assert store.open_slice("d1") is None
        # The stale shard stays on disk untouched, and its number is
        # never reused by new appends.
        assert (tmp_path / "shard-000000.json").exists()
        store.append("d9", make_optional_field_log().columnar())
        assert (tmp_path / "shard-000001.json").exists()

    def test_uncommitted_tail_reclaimed(self, tmp_path):
        """Bytes past the committed extent (a crashed append) are reused."""
        store, logs = _filled_store(tmp_path)
        blob = tmp_path / "shard-000000.bin"
        committed = blob.stat().st_size
        with open(blob, "ab") as handle:
            handle.write(b"\xff" * 4096)  # crash leftovers, no index commit
        reopened = CorpusStore(tmp_path, enabled=True)
        assert reopened.stats["quarantined"] == 0  # longer blob is fine
        reopened.append("d4", make_optional_field_log().columnar())
        assert reopened.open_slice("d4") is not None
        # The leftover bytes were truncated away before the new payload.
        meta = json.loads((tmp_path / "shard-000000.json").read_text())
        assert meta["drives"]["d4"]["offset"] == committed

    def test_failed_append_counts_and_stays_missing(self, tmp_path, monkeypatch):
        from repro.robust import faults

        store, _ = _filled_store(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
        faults.reset()
        try:
            assert not store.append("d5", make_optional_field_log().columnar())
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset()
        assert store.stats["put_failures"] == 1
        assert "d5" not in store
        # The injected failure hit the index commit *after* the blob
        # write — the canonical crash window. A reopen sees no corruption
        # and the next append reclaims the orphaned tail bytes.
        reopened = CorpusStore(tmp_path, enabled=True)
        assert reopened.stats["quarantined"] == 0
        assert reopened.append("d5", make_optional_field_log().columnar())
        assert reopened.open_slice("d5") is not None


class TestResume:
    def test_resume_after_kill_regenerates_only_missing(self, tmp_path):
        """Kill generation mid-corpus; the rerun simulates only the rest."""
        ctx = fanout.fork_context()
        if ctx is None:
            pytest.skip("fork start method unavailable")
        scenarios = _scenarios()
        root = tmp_path / "corpus"

        def die_after_two():
            store = CorpusStore(root, enabled=True)
            original = CorpusStore.append

            def mortal_append(self, drive_id, clog):
                stored = original(self, drive_id, clog)
                if self.appends >= 2:
                    os._exit(17)  # hard kill: no cleanup, no flushes
                return stored

            CorpusStore.append = mortal_append
            try:
                run_drives_to_store(scenarios, workers=1, store=store, use_cache=False)
            finally:
                CorpusStore.append = original
            os._exit(0)  # not reached

        child = ctx.Process(target=die_after_two)
        child.start()
        child.join(timeout=240)
        assert child.exitcode == 17

        survivor = CorpusStore(root, enabled=True)
        assert len(survivor) == 2  # two committed drives survived the kill
        view = run_drives_to_store(
            scenarios, workers=1, store=survivor, use_cache=False
        )
        assert survivor.stats["appends"] == 1  # only the missing drive ran
        assert len(survivor) == 3
        reference = run_drives(scenarios, workers=1, use_cache=False)
        for a, b in zip(view, reference):
            assert log_to_dict(a) == log_to_dict(b)

    def test_second_build_simulates_nothing(self, tmp_path):
        scenarios = _scenarios()[:2]
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        run_drives_to_store(scenarios, workers=1, store=store, use_cache=False)
        assert store.stats["appends"] == 2
        resumed = CorpusStore(tmp_path / "corpus", enabled=True)
        view = run_drives_to_store(
            scenarios, workers=1, store=resumed, use_cache=False
        )
        assert resumed.stats["appends"] == 0
        reference = run_drives(scenarios, workers=1, use_cache=False)
        for a, b in zip(view, reference):
            assert log_to_dict(a) == log_to_dict(b)

    def test_npz_cache_hits_migrate_instead_of_simulating(self, tmp_path):
        scenarios = _scenarios()[:2]
        npz_cache = DriveCache(tmp_path / "cache", store=None)
        run_drives(scenarios, workers=1, cache=npz_cache)
        assert npz_cache.stats["stores"] == 2

        store = CorpusStore(tmp_path / "corpus", enabled=True)
        cache = DriveCache(tmp_path / "cache", store=store)
        view = run_drives_to_store(scenarios, workers=1, store=store, cache=cache)
        # Both drives came out of the .npz entries, not the simulator:
        # migration appends happen inside get_columnar.
        assert store.stats["appends"] == 2
        assert cache.stats["hits"] == 2
        reference = run_drives(scenarios, workers=1, use_cache=False)
        for a, b in zip(view, reference):
            assert log_to_dict(a) == log_to_dict(b)


class TestDriveCacheDelegation:
    def test_put_appends_to_store_not_npz(self, tmp_path, freeway_low_log):
        scenario = freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=44)
        log = scenario.run()
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        cache = DriveCache(tmp_path / "cache", store=store)
        cache.put(scenario, log)
        assert cache.stats["stores"] == 1
        assert store.stats["appends"] == 1
        assert not (tmp_path / "cache").exists()  # no .npz written
        hit = cache.get(scenario)
        assert cache.stats["hits"] == 1
        assert log_to_dict(hit) == log_to_dict(log)

    def test_get_columnar_skips_rebuild(self, tmp_path):
        scenario = freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=45)
        log = scenario.run()
        cache = DriveCache(tmp_path, store=None)
        cache.put(scenario, log)
        clog = cache.get_columnar(scenario)
        assert clog is not None
        assert cache.stats["hits"] == 1
        assert clog.content_digest() == log.columnar().content_digest()
        assert cache.get_columnar(
            freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=46)
        ) is None
        assert cache.stats["misses"] == 1

    def test_npz_hit_migrates_into_store(self, tmp_path):
        scenario = freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=47)
        log = scenario.run()
        DriveCache(tmp_path / "cache", store=None).put(scenario, log)
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        cache = DriveCache(tmp_path / "cache", store=store)
        first = cache.get_columnar(scenario)
        assert first is not None and store.stats["appends"] == 1
        # Second lookup serves the memory-mapped corpus slice.
        second = cache.get_columnar(scenario)
        assert store.stats["hits"] == 1
        assert second.content_digest() == first.content_digest()

    def test_env_attaches_store_to_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
        cache = DriveCache(tmp_path / "cache")
        assert isinstance(cache.store, CorpusStore)
        assert cache.store.root == tmp_path / "corpus"
        monkeypatch.delenv("REPRO_CORPUS_DIR")
        assert DriveCache(tmp_path / "cache").store is None


class TestViews:
    def test_ref_and_view_pickle_small(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        ref = DriveRef(str(tmp_path), "d1")
        assert len(pickle.dumps(ref)) < 200
        view = CorpusView(tmp_path, ["d1", "d2", "d3"])
        assert len(pickle.dumps(view)) < 400
        clone = pickle.loads(pickle.dumps(view))
        for i, drive_id in enumerate(["d1", "d2", "d3"]):
            assert log_to_dict(clone[i]) == log_to_dict(logs[drive_id])
        assert log_to_dict(ref.load()) == log_to_dict(logs["d1"])

    def test_view_memoizes_but_does_not_pickle_logs(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        view = CorpusView(tmp_path, ["d1", "d2"])
        assert view[0] is view[0]
        assert len(pickle.dumps(view)) < 400  # memo dropped from state

    def test_missing_drive_raises_keyerror(self, tmp_path):
        _filled_store(tmp_path)
        with pytest.raises(KeyError, match="ghost"):
            DriveRef(str(tmp_path), "ghost").columnar()

    def test_view_slicing_and_events(self, tmp_path):
        from repro.ml.features import handover_events

        store, logs = _filled_store(tmp_path)
        view = CorpusView(tmp_path, ["d1", "d2", "d3"])
        sliced = view[1:]
        assert isinstance(sliced, CorpusView) and len(sliced) == 2
        materialised = [logs["d1"], logs["d2"], logs["d3"]]
        assert view.handover_events() == handover_events(materialised)


class TestPrognosOverView:
    def test_view_matches_list_replay(self, tmp_path):
        from repro.core.evaluation import configs_for_log, run_prognos_over_logs

        scenarios = _scenarios()[:2]
        logs = run_drives(scenarios, workers=1, use_cache=False)
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        view = run_drives_to_store(
            scenarios, workers=1, store=store, use_cache=False
        )
        configs = configs_for_log(OPX, (BandClass.LOW,))
        from_list = run_prognos_over_logs(logs, configs, stride=64)
        from_view = run_prognos_over_logs(view, configs, stride=64)
        np.testing.assert_array_equal(from_list.times_s, from_view.times_s)
        assert from_list.predictions == from_view.predictions
        assert from_list.truths == from_view.truths
        assert from_list.events == from_view.events
        assert from_list.lead_times_s == from_view.lead_times_s
