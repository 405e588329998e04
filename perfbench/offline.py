"""The offline workloads: corpus build -> §5 analyses -> Table 3 -> Fig. 18 -> §7.4.

One *pass* is what a researcher runs to regenerate the paper's offline
results from drive logs:

1. ``run_drives_to_store`` simulates the corpus into a sharded
   ``CorpusStore`` (two dense mmWave walks shaped like D1, two mixed
   mmWave/low-band walks shaped like D2, four sparse low-band freeway
   drives);
2. the §5 analyses scan the ``CorpusView``;
3. the Table 3 cells (GBC, stacked LSTM, Prognos on D1 and D2), called
   the way ``benchmarks/bench_table3_prediction.py`` calls them;
4. the Fig. 18 Prognos replay over the freeway drives;
5. §7.4 VoD playback: robustMPC over each freeway drive's capacity
   trace, with and without the replay's Prognos feed.

``offline_cold`` starts every pass from empty roots: a source edit
changes every cache key, so this is the re-run after an edit, and the
caches only write. ``offline_warm`` re-runs over roots that set-up
filled with cold passes: nothing is simulated or fitted, and the time
goes to slice opens, ``DriveLog`` materialisation, cache loads and the
replay, which is never cached.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import gc
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import duration, energy, frequency
from repro.apps import RobustMpc
from repro.apps.abr import player
from repro.apps.abr.prediction import PredictionFeed
from repro.core import evaluation
from repro.core.prognos import Prognos
from repro.core.report_predictor import ReportPredictor
from repro.ml.dataset_cache import DatasetCache
from repro.ml.features import log_time_offsets
from repro.ml.gbc import GradientBoostingClassifier
from repro.ml.lstm import StackedLstmClassifier
from repro.ml.model_cache import ModelCache
from repro.net.emulation import BandwidthTrace
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust import supervisor
from repro.simulate import columnar, corpus, runner
from repro.simulate.cache import DriveCache
from repro.simulate.scenarios import city_walk_scenario, freeway_scenario

from report import Result
from tracer import Tracer, first_arg_len

#: Corpus shape: one cold pass takes a few seconds on a 2-vCPU VM, so a
#: run times enough passes for a steady median.
WALK_MIN = 1.0
FREEWAY_KM = 1.0
LSTM_EPOCHS = 3
REPLAY_STRIDE = 2
#: Timed passes per run, at least (a traced or slow run still gets a median).
MIN_ROUNDS = 3
#: Set-up repetitions; ``offline_warm`` fills one root per repetition
#: and its timed passes cycle over them.
SETUP_REPS = 3

DATASETS = {
    "D1": (BandClass.MMWAVE,),
    "D2": (BandClass.MMWAVE, BandClass.LOW),
}
DRIVES = 8
#: Stage calls per pass: simulate, 7 analyses, 6 Table 3 cells, replay, VoD.
STAGE_CALLS = 16
CACHES = ("drive", "dataset", "model")
CACHE_FIELDS = ("hits", "misses", "stores", "put_failures", "corrupt")
ROBUST_FIELDS = ("jobs", "retried_jobs", "timeouts", "pool_rebuilds", "serial_jobs")


def corpus_scenarios(seed: int) -> dict[str, list]:
    """The pass's drives; every scenario seed derives from ``seed``."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=DRIVES)]
    return {
        "D1": [
            city_walk_scenario(OPX, DATASETS["D1"], duration_min=WALK_MIN, seed=s)
            for s in seeds[0:2]
        ],
        "D2": [
            city_walk_scenario(OPX, DATASETS["D2"], duration_min=WALK_MIN, seed=s)
            for s in seeds[2:4]
        ],
        "freeway": [
            freeway_scenario(OPX, BandClass.LOW, length_km=FREEWAY_KM, seed=s)
            for s in seeds[4:8]
        ],
    }


# ----------------------------------------------------------------------
# Output digest
# ----------------------------------------------------------------------


def canonical(value):
    """An exact, order-stable rendering of a pass output (floats by ``hex``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [f.name, canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), canonical(value.tolist())]
    if isinstance(value, dict):
        return sorted([canonical(k), canonical(v)] for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(outputs: dict) -> str:
    return hashlib.sha256(repr(canonical(outputs)).encode()).hexdigest()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


@dataclasses.dataclass
class PassCounters:
    """What one pass did, read from the program's own counters and rusage."""

    drives_simulated: int = 0
    store: dict = dataclasses.field(default_factory=dict)
    slices: dict = dataclasses.field(default_factory=dict)
    bytes_indexed: int = 0
    caches: dict = dataclasses.field(default_factory=dict)
    robust: dict = dataclasses.field(default_factory=dict)
    simulate_wall_s: float = 0.0
    simulate_parent_cpu_s: float = 0.0
    simulate_worker_cpu_s: float = 0.0
    worker_peak_rss_mb: float = 0.0


class Roots:
    """One pass's cache and corpus roots, passed explicitly and via env."""

    def __init__(self, base: Path):
        self.base = base
        self.cache = base / "cache"
        self.corpus = base / "corpus"

    def activate(self) -> None:
        # Implicit consumers (default-constructed caches) land here too,
        # never in the working directory's .repro-cache.
        os.environ["REPRO_CACHE_DIR"] = str(self.cache)
        os.environ["REPRO_CORPUS_DIR"] = str(self.corpus)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_pass(scenarios: dict[str, list], roots: Roots, workers: int, span=None):
    """One full pass over fresh cache/store objects; (outputs, counters)."""
    span = span or (lambda name: contextlib.nullcontext())
    roots.activate()
    store = corpus.CorpusStore(roots.corpus)
    drive_cache = DriveCache(roots.cache, store=store)
    dataset_cache = DatasetCache(roots.cache)
    model_cache = ModelCache(roots.cache)
    # Each supervised pool pass leaves its stats behind; count the ones
    # this pass started (a stage that needed no pool leaves the old ones).
    pools: list = [supervisor.last_run_stats()]

    def note_pool() -> None:
        stats = supervisor.last_run_stats()
        if all(stats is not seen for seen in pools):
            pools.append(stats)

    ordered = scenarios["D1"] + scenarios["D2"] + scenarios["freeway"]
    counters = PassCounters()
    with span("stage.simulate"):
        wall0, parent0, workers0 = (
            time.perf_counter(),
            _cpu_s(resource.RUSAGE_SELF),
            _cpu_s(resource.RUSAGE_CHILDREN),
        )
        view = runner.run_drives_to_store(
            ordered, workers, store=store, cache=drive_cache
        )
        counters.simulate_wall_s = time.perf_counter() - wall0
        counters.simulate_parent_cpu_s = _cpu_s(resource.RUSAGE_SELF) - parent0
        counters.simulate_worker_cpu_s = _cpu_s(resource.RUSAGE_CHILDREN) - workers0
    note_pool()
    views = {"D1": view[0:2], "D2": view[2:4], "freeway": view[4:8]}

    with span("stage.analysis"):
        outputs: dict = {"analysis": run_analyses(view)}

    with span("stage.table3"):
        table3 = []
        for name, bands in DATASETS.items():
            logs = views[name]
            gbc = evaluation.evaluate_gbc(
                logs, model_cache=model_cache, dataset_cache=dataset_cache
            )
            lstm = evaluation.evaluate_lstm(
                logs,
                epochs=LSTM_EPOCHS,
                model_cache=model_cache,
                dataset_cache=dataset_cache,
            )
            prognos, _ = evaluation.evaluate_prognos(logs, OPX, bands, stride=2)
            table3 += [(name, "GBC", gbc), (name, "LSTM", lstm), (name, "Prognos", prognos)]
    outputs["table3"] = table3

    freeway = views["freeway"]
    with span("stage.replay"):
        replay = evaluation.run_prognos_over_logs(
            freeway,
            evaluation.configs_for_log(OPX, (BandClass.LOW,)),
            stride=REPLAY_STRIDE,
        )
    outputs["replay"] = {
        "times_s": replay.times_s,
        "predictions": replay.predictions,
        "lead_times_s": replay.lead_times_s,
    }
    with span("stage.vod"):
        outputs["vod"] = player.play_many(vod_jobs(freeway, replay), workers=workers)
    note_pool()

    # A re-run is a new process: drop the process-wide read handle so
    # the next pass over these roots opens its store afresh.
    slices = corpus._PROCESS_STORES.pop(str(roots.corpus), None)
    counters.drives_simulated = store.appends
    counters.store = store.stats
    counters.slices = slices.stats if slices is not None else {}
    counters.bytes_indexed = store.bytes_indexed
    counters.caches = {
        "drive": drive_cache.stats,
        "dataset": dataset_cache.stats,
        "model": model_cache.stats,
    }
    counters.robust = {
        key: sum(getattr(stats, key) for stats in pools[1:]) for key in ROBUST_FIELDS
    }
    counters.worker_peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    return outputs, counters


def run_analyses(view) -> dict:
    """The §5 entry points (frequency, signaling, duration, energy) on the view."""
    nsa = frequency.FIVE_G_NSA_TYPES
    return {
        "frequency": frequency.frequency_breakdown(view),
        "signaling": frequency.signaling_per_km(view),
        "signaling_by_type": frequency.signaling_breakdown(view),
        "nsa_rate_per_km": frequency.handover_rate_per_km(view, nsa),
        "duration": duration.duration_breakdown(view),
        "energy": energy.energy_breakdown(view, nsa),
        "hourly": energy.hourly_energy_budget(view, nsa),
    }


def vod_jobs(freeway, replay) -> list:
    """robustMPC over each drive's trace, without and with the Prognos feed."""
    jobs = []
    logs = [freeway[i] for i in range(len(freeway))]
    for log, offset in zip(logs, log_time_offsets(logs)):
        times, caps = log.capacity_series()
        end = offset + float(times[-1] - times[0])
        mine = (replay.times_s >= offset) & (replay.times_s <= end)
        feed = PredictionFeed.from_prognos(
            replay.times_s[mine] - offset,
            [p for p, keep in zip(replay.predictions, mine) if keep],
        )
        events = [(h.decision_time_s, h.ho_type) for h in log.handovers]
        trace = BandwidthTrace(times, caps)
        jobs.append((RobustMpc, trace, None, events))
        jobs.append((RobustMpc, trace, feed, events))
    return jobs


def corpus_ticks(roots: Roots) -> int:
    """Ticks across every drive a pass stored under ``roots``."""
    store = corpus.CorpusStore(roots.corpus)
    return sum(
        len(store.open_slice(drive_id).arrays["tick_time_s"])
        for drive_id in store.drive_ids()
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def state_problems(kind: str, counters: PassCounters) -> list[str]:
    """Violations of what a cold or warm pass must look like."""
    problems = []
    caches = counters.caches
    if kind == "cold":
        hits = {name: c["hits"] for name, c in caches.items() if c["hits"]}
        if hits:
            problems.append(f"cold pass hit the caches: {hits}")
        if counters.drives_simulated != DRIVES:
            problems.append(
                f"cold pass simulated {counters.drives_simulated} of {DRIVES} drives"
            )
    else:
        misses = {name: c["misses"] for name, c in caches.items() if c["misses"]}
        if misses:
            problems.append(f"warm pass missed the caches: {misses}")
        if counters.drives_simulated:
            problems.append(f"warm pass simulated {counters.drives_simulated} drives")
    for name, c in caches.items():
        if c["put_failures"] or c["corrupt"]:
            problems.append(f"{name} cache unhealthy: {c}")
    # The writer's store misses by design on cold (the drive cache asks
    # it first); the readers' store must find every drive.
    for label, stats in (("store", counters.store), ("slices", counters.slices)):
        if stats.get("put_failures") or stats.get("quarantined") or stats.get("duplicates"):
            problems.append(f"corpus {label} unhealthy: {stats}")
    if counters.slices.get("misses"):
        problems.append(f"corpus slices missed: {counters.slices}")
    recovered = {k: v for k, v in counters.robust.items() if k != "jobs" and v}
    if recovered:
        problems.append(f"supervised pools recovered from faults: {recovered}")
    return problems


def digest_problems(got: str, reference: str, what: str) -> list[str]:
    if got == reference:
        return []
    return [f"output digest {got[:12]} differs from {what} {reference[:12]}"]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def _rows(args, result) -> int:
    return int(result.x.shape[0])


def _fit_rows(args, result) -> int:
    return int(args[1].shape[0])


def _replay_steps(args, result) -> int:
    return len(result.times_s)


def install_tracing(tracer: Tracer) -> None:
    """Wrap the offline layers' public entry points."""
    wrap = tracer.wrap
    wrap(runner, "run_drives_to_store", "simulate.run_drives_to_store")
    wrap(DriveCache, "get_columnar", "cache.get")
    for cache in (DatasetCache, ModelCache):
        wrap(cache, "get", "cache.get")
        wrap(cache, "put", "cache.put")
    wrap(corpus.CorpusStore, "append", "corpus.append")
    wrap(corpus.CorpusStore, "open_slice", "corpus.open_slice")
    wrap(columnar.ColumnarLog, "to_drive_log", "corpus.materialise")
    for module, names in (
        (frequency, ("frequency_breakdown", "signaling_per_km",
                     "signaling_breakdown", "handover_rate_per_km")),
        (duration, ("duration_breakdown",)),
        (energy, ("energy_breakdown", "hourly_energy_budget")),
    ):
        for name in names:
            wrap(module, name, f"analysis.{name}")
    wrap(evaluation, "build_radio_feature_dataset", "ml.dataset_build", _rows)
    wrap(evaluation, "build_location_sequence_dataset", "ml.dataset_build", _rows)
    wrap(GradientBoostingClassifier, "fit", "ml.gbc_fit", _fit_rows)
    wrap(StackedLstmClassifier, "fit", "ml.lstm_fit", _fit_rows)
    wrap(GradientBoostingClassifier, "predict", "ml.predict")
    wrap(StackedLstmClassifier, "predict", "ml.predict")
    for name in ("evaluate_gbc", "evaluate_lstm", "evaluate_prognos"):
        wrap(evaluation, name, f"core.{name}")
    wrap(evaluation, "run_prognos_over_logs", "core.replay", _replay_steps)
    wrap(ReportPredictor, "predict_reports_batched", "core.forecast")
    wrap(Prognos, "step_with_forecast", "core.learner")
    wrap(player, "play_many", "apps.play_many", first_arg_len)


def layer_of(name: str) -> str:
    """The ``repro`` layer of a span; the pass and stage spans are the rest."""
    layer = name.split(".", 1)[0]
    return "other" if layer in ("pass", "stage") else layer


def layer_metrics(tracer: Tracer, traced: list[PassCounters], ticks: int) -> dict:
    """The per-layer metrics, as means per traced pass."""
    n = len(traced)

    def mean(values) -> float:
        return float(sum(values)) / n

    def spans_s(*names) -> float:
        return sum(tracer.total_s(name) for name in names) / n

    def units(name) -> float:
        return tracer.units(name) / n

    layers = tracer.summary(layer_of)
    m: dict[str, tuple[float, str]] = {
        "simulate.drives": (mean(c.drives_simulated for c in traced), "count"),
        "simulate.ticks": (
            mean(ticks * c.drives_simulated / DRIVES for c in traced), "count"
        ),
        "simulate.wall_s": (mean(c.simulate_wall_s for c in traced), "s"),
        "simulate.parent_cpu_s": (mean(c.simulate_parent_cpu_s for c in traced), "s"),
        "simulate.worker_cpu_s": (mean(c.simulate_worker_cpu_s for c in traced), "s"),
        "simulate.worker_peak_rss_mb": (max(c.worker_peak_rss_mb for c in traced), "MB"),
    }
    for key in ROBUST_FIELDS:
        m[f"robust.{key}"] = (mean(c.robust[key] for c in traced), "count")
    m.update(
        {
            "corpus.appends": (mean(c.store["appends"] for c in traced), "count"),
            "corpus.append_s": (spans_s("corpus.append"), "s"),
            "corpus.bytes_indexed": (mean(c.bytes_indexed for c in traced), "B"),
            "corpus.slices_opened": (tracer.count("corpus.open_slice") / n, "count"),
            "corpus.open_slice_s": (spans_s("corpus.open_slice"), "s"),
            "corpus.materialise_s": (spans_s("corpus.materialise"), "s"),
            "corpus.put_failures": (
                mean(c.store["put_failures"] + c.slices.get("put_failures", 0) for c in traced),
                "count",
            ),
            "corpus.quarantined": (
                mean(c.store["quarantined"] + c.slices.get("quarantined", 0) for c in traced),
                "count",
            ),
        }
    )
    for cache in CACHES:
        for key in CACHE_FIELDS:
            m[f"cache.{cache}.{key}"] = (mean(c.caches[cache][key] for c in traced), "count")
    hits = sum(c.caches[k]["hits"] for c in traced for k in CACHES)
    lookups = hits + sum(c.caches[k]["misses"] for c in traced for k in CACHES)
    m["cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["cache.get_s"] = (spans_s("cache.get"), "s")
    m["cache.put_s"] = (spans_s("cache.put"), "s")
    analysis_s = layers.get("analysis", {}).get("busy_s", 0.0) / n
    m["analysis.wall_s"] = (analysis_s, "s")
    m["analysis.ticks_per_s"] = (ticks / analysis_s if analysis_s else 0.0, "1/s")
    gbc_s, lstm_s = spans_s("ml.gbc_fit"), spans_s("ml.lstm_fit")
    m.update(
        {
            "ml.dataset_build_s": (spans_s("ml.dataset_build"), "s"),
            "ml.dataset_rows": (units("ml.dataset_build"), "count"),
            "ml.gbc_fit_s": (gbc_s, "s"),
            "ml.gbc_rows_per_s": (units("ml.gbc_fit") / gbc_s if gbc_s else 0.0, "1/s"),
            "ml.lstm_fit_s": (lstm_s, "s"),
            "ml.lstm_seqs_per_s": (units("ml.lstm_fit") / lstm_s if lstm_s else 0.0, "1/s"),
            "ml.predict_s": (spans_s("ml.predict"), "s"),
        }
    )
    replay_s = spans_s("core.replay")
    forecast_s, learner_s = spans_s("core.forecast"), spans_s("core.learner")
    m.update(
        {
            "core.replay_steps": (units("core.replay"), "count"),
            "core.replay_s": (replay_s, "s"),
            "core.replay_steps_per_s": (
                units("core.replay") / replay_s if replay_s else 0.0, "1/s"
            ),
            "core.forecast_s": (forecast_s, "s"),
            "core.learner_s": (learner_s, "s"),
            "core.replay_other_s": (replay_s - forecast_s - learner_s, "s"),
            "apps.sessions": (units("apps.play_many"), "count"),
            "apps.play_s": (spans_s("apps.play_many"), "s"),
        }
    )
    return m


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


class Workdir:
    """Pass roots under one directory inside the checkout, removed on close."""

    def __init__(self, parent: Path):
        parent.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="offline-", dir=parent))
        self._count = 0

    def fresh(self) -> Roots:
        self._count += 1
        return Roots(self.path / f"pass-{self._count:04d}")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def run_workload(kind: str, args, env) -> Result:
    """``offline_cold`` or ``offline_warm`` for ``args.seconds`` of timed passes."""
    result = Result()
    workdir = Workdir(env.workdir)
    cwd_cache = Path.cwd() / ".repro-cache"
    cwd_cache_before = _mtime(cwd_cache)
    try:
        _run(kind, args, env, workdir, result)
    finally:
        workdir.close()
    if _mtime(cwd_cache) != cwd_cache_before:
        result.fail("the working directory's .repro-cache was written")
    return result


def _mtime(path: Path):
    return path.stat().st_mtime_ns if path.exists() else None


def _run(kind: str, args, env, workdir: Workdir, result: Result) -> None:
    workers = env.workers
    # Set-up, repeated: scenarios (and, warm, one cold pass per fill).
    setup_times, fills = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        scenarios = corpus_scenarios(args.seed)
        if kind == "warm":
            roots = workdir.fresh()
            outputs, counters = run_pass(scenarios, roots, workers)
            fills.append((roots, digest(outputs), counters))
        setup_times.append(time.perf_counter() - t0)
    setup_s = env.import_s + statistics.median(setup_times)

    reference = None
    if fills:
        reference = fills[0][1]
        for roots, fill_digest, counters in fills:
            result.attempt(2)
            result.check(state_problems("cold", counters))
            result.check(digest_problems(fill_digest, reference, "the first fill"))
        ticks = corpus_ticks(fills[0][0])

    tracer = Tracer() if args.trace else None
    untraced_s, traced_s, traced_counters = [], [], []
    t_start = time.perf_counter()
    round_no = 0
    while (
        time.perf_counter() - t_start < args.seconds
        or len(untraced_s) < MIN_ROUNDS
        or (tracer is not None and len(traced_s) < MIN_ROUNDS)
    ):
        traced_round = tracer is not None and round_no % 2 == 1
        roots = fills[round_no % len(fills)][0] if fills else workdir.fresh()
        span = None
        if traced_round:
            tracer.trace_id = round_no
            install_tracing(tracer)
            span = tracer.span
        # Every pass starts from a collected heap, not the last one's garbage.
        gc.collect()
        t0 = time.perf_counter()
        try:
            if span is not None:
                with span("pass"):
                    outputs, counters = run_pass(scenarios, roots, workers, span)
            else:
                outputs, counters = run_pass(scenarios, roots, workers)
        finally:
            if traced_round:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        (traced_s if traced_round else untraced_s).append(elapsed)
        result.attempt(STAGE_CALLS + 2)
        result.check(state_problems(kind, counters))
        got = digest(outputs)
        if reference is None:
            reference = got
            ticks = corpus_ticks(roots)
            what = "the first pass"
        else:
            what = "the cold fill" if fills else "the first pass"
        result.check(digest_problems(got, reference, what))
        if traced_round:
            traced_counters.append(counters)
        if not fills:
            shutil.rmtree(roots.base, ignore_errors=True)
        round_no += 1

    wall_s = statistics.median(untraced_s)
    result.header.update(corpus_ticks=ticks, rounds=len(untraced_s))
    result.e2e = {
        "wall_s": (wall_s, "s"),
        # Corpus ticks carried through the whole pipeline per second.
        "ticks_per_s": (ticks / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    result.lines.append(
        f"{len(untraced_s)} untraced passes over {ticks} corpus ticks: "
        + ", ".join(f"{s:.3f}" for s in untraced_s)
        + f" s; median {wall_s:.3f} s, set-up {setup_s:.3f} s"
    )
    if tracer is not None:
        spans_path = env.workdir / f"spans-offline_{kind}-seed{args.seed}.json"
        tracer.dump(spans_path)
        result.lines.append(f"spans of the traced passes (trace id = pass): {spans_path}")
        traced_median = statistics.median(traced_s)
        result.layers = layer_metrics(tracer, traced_counters, ticks)
        result.trace_report(
            layers=tracer.summary(layer_of),
            units=len(traced_s),
            unit="pass",
            unit_s=traced_median,
            overhead=(
                f"tracing overhead: traced median {traced_median:.3f} s vs untraced "
                f"{wall_s:.3f} s per pass ({100 * (traced_median / wall_s - 1):+.1f}%)"
            ),
            resolution_s=env.bounds["wall_s"] * wall_s,
            metric="wall_s",
        )
