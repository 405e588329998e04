"""The Prognos replay, Table 3 cells and dataset keys read corpus views
from their packed columns.

* The column-built replay plan equals the plan built from the log's
  record objects (events, step times, per-step inputs with their dict
  key order, labels, duration), for simulated drives, hand-built logs
  with every optional-field shape, edge cases and several strides —
  whether the columns are a ``DriveLog``'s packing or a corpus slice.
* With ``ColumnarLog.to_drive_log`` patched to raise, the replay,
  ``evaluate_prognos`` and the warm GBC/LSTM cells run over a
  ``CorpusView`` and equal their results over the materialised list.
* Dataset-cache keys over a view equal the keys over the same drives
  as ``DriveLog`` objects, so caches filled before stay valid.

Mutants of ``_replay_plan`` these tests kill: an unstable report sort
(``np.argsort`` without ``kind="stable"``), a dropped scope flag (every
neighbour listed as A3-scoped), an ignored RRS mask (a serving cell
with no RRS sample given RSRP 0.0).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.evaluation import (
    _ReplayPlan,
    _replay_plan,
    _tick_inputs,
    configs_for_log,
    evaluate_gbc,
    evaluate_lstm,
    evaluate_prognos,
    run_prognos_over_logs,
)
from repro.ml.dataset_cache import DatasetCache
from repro.ml.features import labels_for_times
from repro.ml.model_cache import ModelCache
from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.rrc.events import MeasurementObject
from repro.rrc.taxonomy import HandoverType
from repro.simulate.columnar import ColumnarLog
from repro.simulate.corpus import CorpusStore, CorpusView
from repro.simulate.records import DriveLog, ReportRecord
from repro.simulate.runner import run_drives, run_drives_to_store
from repro.simulate.scenarios import city_walk_scenario
from tests.conftest import make_optional_field_log

STRIDES = (1, 2, 3, 8)
BANDS = (BandClass.MMWAVE,)


def _ticks_plan(log: DriveLog, window_s: float, stride: int) -> _ReplayPlan:
    """The replay plan built from the log's record objects."""
    tick_times = np.array([t.time_s for t in log.ticks])
    reports = sorted(log.reports, key=lambda r: r.time_s)
    commands = sorted(log.handovers, key=lambda h: h.exec_start_s)
    events = []
    if reports:
        due = np.searchsorted(tick_times, [r.time_s for r in reports], side="left")
        events += [(int(t), 0, r.label, r.time_s) for t, r in zip(due, reports)]
    if commands:
        due = np.searchsorted(tick_times, [c.exec_start_s for c in commands], side="left")
        events += [(int(t), 1, c.ho_type, c.exec_start_s) for t, c in zip(due, commands)]
    events.sort(key=lambda e: (e[0], e[1]))
    events = [e for e in events if e[0] < len(log.ticks)]
    indices = np.arange(0, len(log.ticks), stride)
    step_times = tick_times[indices] if len(log.ticks) else np.empty(0)
    return _ReplayPlan(
        events,
        step_times,
        [_tick_inputs(log.ticks[i]) for i in indices],
        labels_for_times(log, step_times, window_s),
        log.duration_s,
    )


def _plan_fields(plan: _ReplayPlan) -> tuple:
    # repr pins dict key order and scalar types (an np.int64 key or an
    # np.float64 time reprs differently from the int/float it equals).
    return (
        repr(plan.events),
        plan.step_times.dtype,
        plan.step_times.tobytes(),
        repr(plan.step_inputs),
        plan.step_labels,
        repr(plan.duration_s),
    )


# ----------------------------------------------------------------------
# Logs covering the edge cases
# ----------------------------------------------------------------------


def _late_events_log() -> DriveLog:
    """Reports and commands due after the last tick."""
    log = make_optional_field_log(band=BandClass.MMWAVE)
    last = log.ticks[-1].time_s
    reports = log.reports + [
        dataclasses.replace(log.reports[0], time_s=last + 0.01),
        dataclasses.replace(log.reports[1], time_s=last + 2.0),
    ]
    handovers = log.handovers + [
        dataclasses.replace(log.handovers[0], exec_start_s=last + 0.5),
    ]
    return DriveLog(log.carrier, log.bearer, log.ticks, reports, handovers)


def _tied_events_log(ticks) -> DriveLog:
    """Many reports and commands sharing a few times, listed out of order.

    A stable sort must keep list order among equal times; sorts of this
    size through numpy's default (unstable) kind reorder the ties.
    """
    base = make_optional_field_log()
    times = [ticks[k].time_s for k in (3, 9, 9, 20)]
    rng = np.random.default_rng(7)
    reports = [
        ReportRecord(
            time_s=times[int(i)],
            label=f"R{n}",
            serving_gci=None,
            neighbour_gci=n,
            serving_rrs=None,
            neighbour_rrs=None,
        )
        for n, i in enumerate(rng.integers(0, len(times), size=96))
    ]
    handovers = [
        dataclasses.replace(
            base.handovers[n % 2],
            ho_type=list(HandoverType)[n % len(HandoverType)],
            decision_time_s=times[int(i)] - 0.01,
            exec_start_s=times[int(i)],
        )
        for n, i in enumerate(rng.integers(0, len(times), size=40))
    ]
    return DriveLog("OpX", None, list(ticks), reports, handovers)


def _synthetic_logs(freeway) -> dict[str, DriveLog]:
    optional = make_optional_field_log()
    return {
        "optional": optional,
        "optional-5g-mmwave": make_optional_field_log(
            bearer=BearerMode.FIVE_G_ONLY, band=BandClass.MMWAVE
        ),
        "optional-low": make_optional_field_log(band=BandClass.LOW),
        "no-events": DriveLog("OpX", None, optional.ticks, [], []),
        "freeway-no-events": DriveLog("OpX", None, freeway.ticks[:300], [], []),
        "empty": DriveLog("OpX", None, [], [], []),
        "events-no-ticks": DriveLog(
            "OpX", None, [], optional.reports, optional.handovers
        ),
        "late-events": _late_events_log(),
        "freeway-truncated": DriveLog(
            "OpX", None, freeway.ticks[:150], freeway.reports, freeway.handovers
        ),
        "tied-events": _tied_events_log(freeway.ticks[:40]),
    }


@pytest.fixture(scope="module")
def plan_logs(freeway_low_log, mmwave_walk_log):
    return {
        "freeway": freeway_low_log,
        "mmwave-walk": mmwave_walk_log,
        **_synthetic_logs(freeway_low_log),
    }


@pytest.fixture(scope="module")
def plan_slices(plan_logs, tmp_path_factory):
    """The same logs as memory-mapped corpus slices."""
    store = CorpusStore(tmp_path_factory.mktemp("plans"), enabled=True)
    for name, log in plan_logs.items():
        assert store.append(name, log.columnar())
    return {name: store.open_slice(name) for name in plan_logs}


# ----------------------------------------------------------------------
# Plan equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stride", STRIDES)
def test_column_plan_equals_ticks_plan(plan_logs, plan_slices, stride):
    for name, log in plan_logs.items():
        expected = _plan_fields(_ticks_plan(log, 1.0, stride))
        assert _plan_fields(_replay_plan(log, 1.0, stride)) == expected, name
        assert _plan_fields(_replay_plan(plan_slices[name], 1.0, stride)) == expected, name


def test_edge_cases_reach_what_they_cover(plan_logs):
    """The hand-built logs hit the cases the mutants need."""
    late = _replay_plan(plan_logs["late-events"], 1.0, 1)
    assert len(late.events) < len(plan_logs["late-events"].reports) + len(
        plan_logs["late-events"].handovers
    )
    tied = plan_logs["tied-events"]
    times = np.array([r.time_s for r in tied.reports])
    assert [r.label for r in tied.reports] != [
        tied.reports[i].label for i in np.argsort(times, kind="stable")
    ]
    optional = _replay_plan(plan_logs["optional"], 1.0, 1)
    rsrp, serving, neighbours, scoped = optional.step_inputs[0]
    assert serving[MeasurementObject.LTE] == 0  # a falsy but present GCI
    assert neighbours[MeasurementObject.LTE] != scoped[MeasurementObject.LTE]
    assert serving[MeasurementObject.NR] == 7 and 7 not in rsrp  # no RRS sample
    assert _replay_plan(plan_logs["empty"], 1.0, 2).step_inputs == []


def test_window_reaches_labels(freeway_low_log):
    """A second window gives the same labels as the object path."""
    for window_s in (0.25, 2.5):
        assert (
            _replay_plan(freeway_low_log, window_s, 2).step_labels
            == _ticks_plan(freeway_low_log, window_s, 2).step_labels
        )


# ----------------------------------------------------------------------
# Views replay and evaluate without materialising a drive
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def walk_corpus(tmp_path_factory):
    """Two short D1-style walks, as fresh DriveLogs and as a store view."""
    scenarios = [
        city_walk_scenario(OPX, BANDS, duration_min=1.0, seed=seed)
        for seed in (211, 212)
    ]
    logs = run_drives(scenarios, workers=1, use_cache=False)
    store = CorpusStore(tmp_path_factory.mktemp("walks"), enabled=True)
    view = run_drives_to_store(scenarios, workers=1, store=store)
    return logs, view


def _no_materialise(self):
    raise AssertionError("a CorpusView consumer materialised a DriveLog")


def _run_fields(result) -> tuple:
    return (
        result.times_s.tobytes(),
        result.predictions,
        result.truths,
        result.events,
        result.lead_times_s,
    )


def test_view_replay_and_cells_never_materialise(walk_corpus, tmp_path, monkeypatch):
    logs, view = walk_corpus
    configs = configs_for_log(OPX, BANDS)
    caches = dict(
        model_cache=ModelCache(tmp_path, enabled=True),
        dataset_cache=DatasetCache(tmp_path, enabled=True),
    )
    materialised = list(CorpusView(view.store_path, view.drive_ids))
    replay = _run_fields(run_prognos_over_logs(materialised, configs, stride=2))
    prognos_report, prognos_run = evaluate_prognos(materialised, OPX, BANDS)
    # Cold cells over the list fill the caches the view must hit.
    gbc = evaluate_gbc(materialised, **caches)
    lstm = evaluate_lstm(materialised, epochs=1, **caches)

    monkeypatch.setattr(ColumnarLog, "to_drive_log", _no_materialise)
    fresh = CorpusView(view.store_path, view.drive_ids)
    for workers in (1, 2):
        got = run_prognos_over_logs(fresh, configs, stride=2, workers=workers)
        assert _run_fields(got) == replay, workers
    report, run = evaluate_prognos(fresh, OPX, BANDS)
    assert report == prognos_report
    assert _run_fields(run) == _run_fields(prognos_run)
    hits = caches["dataset_cache"].stats["hits"]
    assert evaluate_gbc(fresh, **caches) == gbc
    assert evaluate_lstm(fresh, epochs=1, **caches) == lstm
    assert caches["dataset_cache"].stats["hits"] == hits + 2
    assert not fresh._logs


def test_view_results_equal_fresh_logs(walk_corpus):
    """The view replays like the simulator's own (packed-on-demand) logs."""
    logs, view = walk_corpus
    configs = configs_for_log(OPX, BANDS)
    assert _run_fields(run_prognos_over_logs(view, configs, stride=3)) == _run_fields(
        run_prognos_over_logs(logs, configs, stride=3)
    )


def test_dataset_keys_unchanged_over_views(walk_corpus):
    logs, view = walk_corpus
    for kind, params in (("radio", {"stride": 5}), ("location-seq", {"stride": 10})):
        key = DatasetCache.key_for(kind, view, params)
        assert key == DatasetCache.key_for(kind, list(view), params)
        assert key == DatasetCache.key_for(kind, logs, params)
