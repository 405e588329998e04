"""Out-of-core corpus store: build resumability, peak RSS, bytes read.

The sharded :class:`~repro.simulate.corpus.CorpusStore` serves drives
as read-only ``np.memmap`` slices over uncompressed shard blobs. This
bench prices the claims:

* **Cold vs. resumed build** — a corpus build killed mid-run (hard
  ``os._exit`` after k of n appends, in a forked child) resumes on
  rerun from the committed shards: exactly n−k drives simulate, and the
  resumed build's wall-clock reflects only the missing work.
* **Warm open latency** — ``open_slice`` (mmap + header arithmetic)
  per drive.
* **Peak RSS** — a full-corpus §5.1 frequency + §5.3 energy scan in a
  forked child, store leg (columnar analyses over memmap slices)
  vs. materialised leg (every slice rebuilt as a ``DriveLog``, then
  the list-based reference analyses), measured by ``ru_maxrss``. Both
  children fork from the same parent state, so the inherited baseline
  cancels.
* **Bytes mapped vs. bytes read** — the whole corpus is mapped, but the
  scan faults in only the columns it touches.

Results land in ``BENCH_corpus_store.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the corpus to a CI smoke budget. The
store directories are bench-private temp dirs — the shared drive cache
and ``REPRO_CORPUS_DIR`` are never touched.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import tempfile
from pathlib import Path

import pytest

from repro.analysis.energy import energy_breakdown, energy_breakdown_reference
from repro.analysis.frequency import (
    FIVE_G_NSA_TYPES,
    frequency_breakdown,
    frequency_breakdown_reference,
)
from repro.perf import Timer
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate.corpus import CorpusStore
from repro.simulate.runner import default_workers, run_drives_to_store
from repro.simulate.scenarios import freeway_scenario

from conftest import print_header

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
DRIVES = 4 if SMOKE else 8
LENGTH_KM = 2.0 if SMOKE else 6.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_corpus_store.json"

#: Columns the §5.1 + §5.3 scans actually touch (bytes-read accounting).
_SCANNED_KEYS = (
    "tick_arc_m",
    "enum_ho_types",
    "ho_type",
    "ho_signaling",
    "ho_energy_j",
    "ho_t1_ms",
    "ho_t2_ms",
)


def _scenarios():
    return [
        freeway_scenario(OPX, BandClass.LOW, length_km=LENGTH_KM, seed=611 + i)
        for i in range(DRIVES)
    ]


def _analyse_store(root, drive_ids):
    """Full-corpus scan over memmap slices: nothing materialised."""
    store = CorpusStore(root, enabled=True)
    slices = [store.open_slice(d) for d in drive_ids]
    freq = frequency_breakdown(slices)
    energy = energy_breakdown(slices, FIVE_G_NSA_TYPES)
    return (freq.distance_km, freq.spacing_5g_nsa_km, energy.energy_per_km_j)


def _analyse_materialised(root, drive_ids):
    """The object-graph consumer pattern: every slice rebuilt as a log."""
    store = CorpusStore(root, enabled=True)
    logs = [store.open_slice(d).to_drive_log() for d in drive_ids]
    freq = frequency_breakdown_reference(logs)
    energy = energy_breakdown_reference(logs, FIVE_G_NSA_TYPES)
    return (freq.distance_km, freq.spacing_5g_nsa_km, energy.energy_per_km_j)


def _rss_child(fn, args, conn):
    try:
        result = fn(*args)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        conn.send((result, peak_kb))
    finally:
        conn.close()
        os._exit(0)


def _measure_rss(ctx, fn, args):
    """Run ``fn`` in a forked child; return (result, peak ru_maxrss KiB)."""
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_rss_child, args=(fn, args, child_conn))
    child.start()
    child_conn.close()
    result, peak_kb = parent_conn.recv()
    child.join(timeout=120)
    return result, peak_kb


def _killed_build(root, kill_after, conn):
    """Child body: run a corpus build that hard-exits mid-publication."""
    store = CorpusStore(root, enabled=True)
    original = CorpusStore.append

    def mortal_append(self, drive_id, clog):
        stored = original(self, drive_id, clog)
        if self.appends >= kill_after:
            conn.send(self.appends)
            conn.close()
            os._exit(21)  # no cleanup, no atexit: a real mid-run kill
        return stored

    CorpusStore.append = mortal_append
    run_drives_to_store(_scenarios(), workers=1, store=store)
    os._exit(0)  # not reached


def test_corpus_store(corpus):
    ctx = multiprocessing.get_context("fork")
    if ctx is None:  # pragma: no cover - Linux CI always has fork
        pytest.skip("fork start method unavailable")
    timer = Timer()
    workers = default_workers()
    scenarios = _scenarios()

    with tempfile.TemporaryDirectory(prefix="bench-corpus-") as tmp:
        tmp = Path(tmp)
        cold_root, resume_root = tmp / "cold", tmp / "resume"

        # --- cold build: every drive simulates, streams into shards ---
        cold_store = CorpusStore(cold_root, enabled=True)
        _, view = timer.timed(
            "cold_build",
            lambda: run_drives_to_store(scenarios, workers=workers, store=cold_store),
        )
        assert cold_store.stats["appends"] == DRIVES

        # --- kill mid-build, then resume: only the rest simulates ---
        kill_after = DRIVES // 2
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_killed_build, args=(resume_root, kill_after, child_conn)
        )
        child.start()
        child_conn.close()
        appends_before_kill = parent_conn.recv()
        child.join(timeout=600)
        assert child.exitcode == 21
        assert appends_before_kill == kill_after

        resumed_store = CorpusStore(resume_root, enabled=True)
        survivors = len(resumed_store)
        assert survivors == kill_after  # committed shards survived the kill
        _, _ = timer.timed(
            "resumed_build",
            lambda: run_drives_to_store(
                scenarios, workers=workers, store=resumed_store
            ),
        )
        resimulated = resumed_store.stats["appends"]
        assert resimulated == DRIVES - kill_after
        assert len(resumed_store) == DRIVES

        # --- warm open latency: mmap slice ---
        warm_store = CorpusStore(cold_root, enabled=True)
        opens = 3 * DRIVES
        slice_open_s, _ = timer.timed(
            "slice_open",
            lambda: [
                warm_store.open_slice(d) for _ in range(3) for d in view.drive_ids
            ],
        )

        # --- peak RSS: full-corpus scan, store leg vs materialised leg ---
        store_result, store_rss_kb = _measure_rss(
            ctx, _analyse_store, (cold_root, list(view.drive_ids))
        )
        materialised_result, materialised_rss_kb = _measure_rss(
            ctx, _analyse_materialised, (cold_root, list(view.drive_ids))
        )
        assert store_result == materialised_result  # bit-identical analyses

        # --- bytes mapped vs bytes read ---
        bytes_mapped = warm_store.bytes_indexed
        bytes_read = sum(
            warm_store.open_slice(d).arrays[key].nbytes
            for d in view.drive_ids
            for key in _SCANNED_KEYS
        )

    cpus = os.cpu_count() or 1
    result = {
        "drives": DRIVES,
        "length_km": LENGTH_KM,
        "cpus": cpus,
        "workers": workers,
        "cold_build_s": round(timer["cold_build"], 3),
        "kill_after": kill_after,
        "survivors_after_kill": survivors,
        "resimulated_on_resume": resimulated,
        "resumed_build_s": round(timer["resumed_build"], 3),
        "slice_open_ms": round(1000 * slice_open_s / opens, 3),
        "scan_rss_store_kb": store_rss_kb,
        "scan_rss_materialised_kb": materialised_rss_kb,
        "bytes_mapped": bytes_mapped,
        "bytes_read": bytes_read,
        "mapped_to_read_ratio": round(bytes_mapped / max(bytes_read, 1), 1),
        "smoke": SMOKE,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print_header("Corpus store (out-of-core sharded drives)")
    print(f"  corpus: {DRIVES} freeway drives x {LENGTH_KM} km, {cpus} CPU(s)")
    print(
        f"  build: cold {timer['cold_build']:6.2f}s; killed at "
        f"{kill_after}/{DRIVES}, resume simulated {resimulated} "
        f"in {timer['resumed_build']:6.2f}s"
    )
    print(f"  warm open: slice {result['slice_open_ms']:7.3f} ms")
    print(
        f"  full-corpus scan RSS: store {store_rss_kb:,} KiB vs "
        f"materialised {materialised_rss_kb:,} KiB"
    )
    print(
        f"  bytes: mapped {bytes_mapped:,} read {bytes_read:,} "
        f"({result['mapped_to_read_ratio']}x)"
    )
    print(f"  -> {OUT_PATH.name}")

    # Acceptance: the killed build resumed without re-simulating the
    # committed drives. Deterministic, so always enforced (the exact
    # counters were asserted inline above).
    assert survivors + resimulated == DRIVES
    # Acceptance: the memmap scan stays below the materialise-everything
    # path on peak RSS — the out-of-core claim. ru_maxrss baselines
    # cancel (both children fork from the same parent state).
    assert store_rss_kb < materialised_rss_kb, (
        f"store scan RSS {store_rss_kb} KiB not below materialised scan RSS "
        f"{materialised_rss_kb} KiB"
    )
    # Acceptance: the scan reads a fraction of what is mapped.
    assert bytes_read < bytes_mapped
