"""CorpusStore: sharded memmap slices, resumable appends, failure modes."""

from __future__ import annotations

import contextlib
import json
import os
import pickle

import numpy as np
import pytest

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust.supervisor import fork_context
from repro.simulate.cache import DriveCache
from repro.simulate.columnar import ARRAY_KEYS
from repro.simulate.corpus import LOCK_NAME, CorpusStore, CorpusView, DriveRef
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
            LOCK_NAME,
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
        assert CorpusStore().root == tmp_path / "corpus"
        # Without it the default store lands next to the other caches.
        monkeypatch.delenv("REPRO_CORPUS_DIR")
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
        assert names == [
            LOCK_NAME,
            "shard-000000.bin.corrupt",
            "shard-000000.json.corrupt",
        ]

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

    @pytest.mark.filterwarnings("ignore:Data type alias")
    def test_damaged_index_never_raises(self, tmp_path):
        """Bits 0 and 3 of every index byte, flipped one at a time: each
        read is a slice or a counted miss, never an exception. (Slices
        through a store handle are unchecked; the drive cache's digest
        check, fuzzed in test_robust_caches.py, rejects altered ones.)"""
        CorpusStore(tmp_path, enabled=True).append(
            "d", make_optional_field_log().columnar()
        )
        index = tmp_path / "shard-000000.json"
        blob = tmp_path / "shard-000000.bin"
        original = index.read_bytes()
        for offset in range(len(original)):
            for bit in (0, 3):
                damaged = bytearray(original)
                damaged[offset] ^= 1 << bit
                index.write_bytes(bytes(damaged))
                store = CorpusStore(tmp_path, enabled=True)
                got = store.open_slice("d")
                counted = store.stats["hits"] if got is not None else store.stats["misses"]
                assert counted == 1, f"bit {bit} of byte {offset}"
                if not blob.exists():  # quarantined: put the pair back
                    blob.with_name(blob.name + ".corrupt").replace(blob)
                    index.with_name(index.name + ".corrupt").unlink(missing_ok=True)

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


def _stress_writer(root, ids):
    # Child-process body: append every id (each writer its own handle,
    # opened before any sibling appended), then exit without cleanup.
    store = CorpusStore(root, enabled=True, shard_mb=0.01)
    for drive_id in ids:
        store.append(drive_id, _stress_log(drive_id).columnar())
    os._exit(0)


def _stress_log(drive_id):
    band = list(BandClass)[int(drive_id.split("-")[1]) % len(BandClass)]
    return make_optional_field_log(band=band)


class TestConcurrentWriters:
    def test_stale_handle_append_keeps_committed_drive(self, tmp_path):
        """Two handles opened on one root before either appended."""
        x = make_optional_field_log(band=BandClass.LOW).columnar()
        y = make_optional_field_log(band=BandClass.MID).columnar()
        s1 = CorpusStore(tmp_path, enabled=True)
        s2 = CorpusStore(tmp_path, enabled=True)
        assert s1.append("x", x)
        assert s2.append("y", y)  # s2 has never seen x's bytes
        assert s1.open_slice("x").content_digest() == x.content_digest()
        assert s1.open_slice("y").content_digest() == y.content_digest()
        fresh = CorpusStore(tmp_path, enabled=True)
        assert sorted(fresh.drive_ids()) == ["x", "y"]
        # The stale handle also knows x now: re-appending it is a no-op.
        assert not s2.append("x", x)
        assert s2.stats["duplicates"] == 1

    def test_processes_append_distinct_and_shared_ids(self, tmp_path):
        ctx = fork_context()
        if ctx is None:
            pytest.skip("fork start method unavailable")
        shared = [f"shared-{i}" for i in range(4)]
        plans = [
            [f"w{w}-{i}" for i in range(5)] + shared[w % 2 :] + shared[: w % 2]
            for w in range(3)
        ]
        children = [
            ctx.Process(target=_stress_writer, args=(tmp_path, ids)) for ids in plans
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0
        every = sorted({d for ids in plans for d in ids})
        listed = [
            d
            for index in sorted(tmp_path.glob("shard-*.json"))
            for d in json.loads(index.read_text())["drives"]
        ]
        assert sorted(listed) == every  # each drive committed exactly once
        assert len({p.name for p in tmp_path.glob("shard-*.json")}) > 1
        assert not list(tmp_path.glob("*.corrupt"))
        store = CorpusStore(tmp_path, enabled=True)
        for drive_id in every:
            got = store.open_slice(drive_id)
            assert store.verify(drive_id, got)
            assert got.content_digest() == _stress_log(drive_id).columnar().content_digest()
        for index in tmp_path.glob("shard-*.json"):
            committed = json.loads(index.read_text())["committed_bytes"]
            assert index.with_suffix(".bin").stat().st_size == committed

    def test_stale_read_handle_finds_later_drive(self, tmp_path):
        """A process-cached read handle sees drives appended after it."""
        from repro.simulate import corpus

        a, b = _scenarios()[:2]
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        view_a = run_drives_to_store([a], workers=1, store=store)
        try:
            assert view_a.columnar(0) is not None  # indexes the root
            view_b = run_drives_to_store([b], workers=1, store=store)
            got = view_b.columnar(0)
        finally:
            corpus._PROCESS_STORES.pop(str(store.root), None)
        assert got.content_digest() == store.open_slice(view_b.drive_ids[0]).content_digest()

    def test_one_mapping_per_shard(self, tmp_path):
        def store_fds():
            # Descriptors open on the store's files (each mapping holds one).
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                with contextlib.suppress(OSError):
                    count += os.readlink(f"/proc/self/fd/{fd}").startswith(str(tmp_path))
            return count

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count descriptors")
        store = CorpusStore(tmp_path, enabled=True, shard_mb=0.1)
        log = make_optional_field_log().columnar()
        for i in range(200):
            store.append(f"d-{i}", log)
            assert store.open_slice(f"d-{i}") is not None
        shards = store.stats["shards"]
        assert len(store._mmaps) <= shards
        assert store_fds() <= shards


class TestResume:
    def test_resume_after_kill_regenerates_only_missing(self, tmp_path):
        """Kill generation mid-corpus; the rerun simulates only the rest."""
        ctx = fork_context()
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
                run_drives_to_store(scenarios, workers=1, store=store)
            finally:
                CorpusStore.append = original
            os._exit(0)  # not reached

        child = ctx.Process(target=die_after_two)
        child.start()
        child.join(timeout=240)
        assert child.exitcode == 17

        survivor = CorpusStore(root, enabled=True)
        assert len(survivor) == 2  # two committed drives survived the kill
        view = run_drives_to_store(scenarios, workers=1, store=survivor)
        assert survivor.stats["appends"] == 1  # only the missing drive ran
        assert len(survivor) == 3
        reference = run_drives(scenarios, workers=1, use_cache=False)
        for a, b in zip(view, reference):
            assert log_to_dict(a) == log_to_dict(b)

    def test_second_build_simulates_nothing(self, tmp_path):
        scenarios = _scenarios()[:2]
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        run_drives_to_store(scenarios, workers=1, store=store)
        assert store.stats["appends"] == 2
        resumed = CorpusStore(tmp_path / "corpus", enabled=True)
        view = run_drives_to_store(scenarios, workers=1, store=resumed)
        assert resumed.stats["appends"] == 0
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
        assert not (tmp_path / "cache").exists()  # nothing beside the store
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

    def test_env_attaches_store_to_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "corpus"))
        assert DriveCache().store.root == tmp_path / "corpus"
        # An explicit root keeps its drives under it, env or not.
        assert DriveCache(tmp_path / "own").store.root == tmp_path / "own" / "corpus"
        monkeypatch.delenv("REPRO_CORPUS_DIR")
        assert DriveCache().store.root == tmp_path / "cache" / "corpus"


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
        view = run_drives_to_store(scenarios, workers=1, store=store)
        configs = configs_for_log(OPX, (BandClass.LOW,))
        from_list = run_prognos_over_logs(logs, configs, stride=64)
        from_view = run_prognos_over_logs(view, configs, stride=64)
        np.testing.assert_array_equal(from_list.times_s, from_view.times_s)
        assert from_list.predictions == from_view.predictions
        assert from_list.truths == from_view.truths
        assert from_list.events == from_view.events
        assert from_list.lead_times_s == from_view.lead_times_s
