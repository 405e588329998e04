"""Edge cases of the batched forecast kernel against the scalar oracle.

Each case is a synthetic step stream built as a replay plan; the
offline path (``_forecast_steps``: one kernel call per block of steps)
and the server path (``StreamingForecaster`` + ``forecast_batch`` per
tick) must both equal :meth:`ReportPredictor.predict_reports` step by
step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import _ReplayPlan, _forecast_steps, configs_for_log
from repro.core.prognos import PrognosConfig
from repro.core.report_predictor import ReportPredictor
from repro.core.rrs_predictor import RRSPredictor
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.rrc.events import MeasurementObject
from repro.serve.forecast import StreamingForecaster, forecast_batch

LTE, NR = MeasurementObject.LTE, MeasurementObject.NR
CONFIGS = configs_for_log(OPX, (BandClass.MMWAVE, BandClass.LOW))
DT = 0.05


def _stream(steps: int = 300, seed: int = 3):
    """A 20 Hz stream that walks through every history edge case.

    LTE serving cell 1 fades while neighbour 2 rises (A3/A5/A2 fire).
    Cell 3 goes silent for 2.2 s (evicted; its history restarts when it
    returns) and cell 2 for 0.9 s (kept; its window ends at its last
    sample) — both stay listed as neighbours while silent. Cell 11 is
    silent for 30 ticks, the 1.5 s boundary. Cell 4 is heard only 3
    times. Cell 2 is listed twice in the neighbour lists for a stretch.
    The NR leg detaches for 3 s, so only NR-B1 applies to it then.
    Nothing at all is heard for 1.75 s near the end while cell 1 stays
    the serving cell: its history outlives the first 1.5 s, then goes.
    """
    rng = np.random.default_rng(seed)
    times, inputs = [], []
    for i in range(steps):
        t = i * DT
        rsrp = {
            1: -95.0 - 0.08 * i + rng.normal(0, 1.5),
            2: -104.0 + 0.09 * i + rng.normal(0, 1.5),
            3: -99.0 + 0.02 * i + rng.normal(0, 2.0),
            11: -112.0 + 0.06 * i + rng.normal(0, 1.5),
            12: -98.0 - 0.04 * i + rng.normal(0, 1.5),
        }
        if 40 <= i < 84:
            del rsrp[3]
        if 100 <= i < 118:
            del rsrp[2]
        if 60 <= i < 90:
            del rsrp[11]
        if 130 <= i < 133:
            rsrp[4] = -97.0 + rng.normal(0, 1.0)
        if 220 <= i < 255:
            rsrp = {}
        lte_neighbours = [2, 3, 4] if 130 <= i < 133 else [2, 3]
        if 140 <= i < 170:
            lte_neighbours = [2, 3, 2]
        nr_serving = None if 60 <= i < 120 or 220 <= i < 255 else 12
        nr_neighbours = [c for c in (11, 12) if c in rsrp and c != nr_serving]
        serving = {LTE: 1, NR: nr_serving}
        neighbours = {LTE: lte_neighbours, NR: nr_neighbours}
        scoped = {LTE: lte_neighbours[:2], NR: nr_neighbours}
        times.append(t)
        inputs.append((rsrp, serving, neighbours, scoped))
    return np.array(times), inputs


def _plan(times, inputs, stride: int) -> _ReplayPlan:
    times, inputs = times[::stride], inputs[::stride]
    duration = float(times[-1]) if len(times) else 0.0
    return _ReplayPlan([], times, inputs, [None] * len(inputs), duration)


def _scalar(plan: _ReplayPlan, config: PrognosConfig):
    rrs = RRSPredictor(
        history_window_ticks=config.history_window_ticks,
        smoother_window=config.smoother_window,
    )
    predictor = ReportPredictor(
        CONFIGS, rrs, prediction_window_s=config.prediction_window_s
    )
    out = []
    for now, (rsrp, serving, neighbours, scoped) in zip(plan.step_times, plan.step_inputs):
        predictor.observe(now, rsrp)
        out.append(
            [
                (r.label, r.fire_in_s)
                for r in predictor.predict_reports(serving, neighbours, scoped)
            ]
        )
    return out


def _served(plan: _ReplayPlan, config: PrognosConfig):
    forecaster = StreamingForecaster(CONFIGS, config=config)
    out = []
    for now, (rsrp, serving, neighbours, scoped) in zip(plan.step_times, plan.step_inputs):
        forecaster.observe(now, rsrp)
        (reports,) = forecast_batch(
            [(forecaster, forecaster.prepare(serving, neighbours, scoped))]
        )
        out.append(reports)
    return out


CONFIG_CASES = {
    "default": PrognosConfig(),
    "short-windows": PrognosConfig(
        prediction_window_s=0.6, history_window_ticks=9, smoother_window=5
    ),
    "kernel-past-history": PrognosConfig(
        prediction_window_s=1.4, history_window_ticks=12, smoother_window=24
    ),
    "unit-kernel": PrognosConfig(smoother_window=1),
}


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_kernel_matches_scalar_step_by_step(name, stride):
    config = CONFIG_CASES[name]
    plan = _plan(*_stream(), stride)
    expected = _scalar(plan, config)
    assert _forecast_steps(plan, CONFIGS, config) == expected
    assert _served(plan, config) == expected
    labels = {label for step in expected for label, _fire in step}
    # The stream must really exercise neighbour and serving-only events.
    assert {"A3", "NR-B1"} <= labels and labels & {"A2", "NR-A2"}


def test_stream_reaches_each_history_case():
    """The stream really evicts and restarts a history, keeps a silent
    cell, has a cell too short to forecast, and keeps then evicts the
    serving cell while nothing is heard."""
    times, inputs = _stream()
    rrs = RRSPredictor()
    seen = dict.fromkeys(("restart", "kept-silent", "short", "hole-kept", "hole-evicted"), False)
    for now, (rsrp, _s, _n, _sc) in zip(times, inputs):
        before = set(rrs.known_cells())
        rrs.observe(now, rsrp)
        held = set(rrs.known_cells())
        seen["restart"] |= 3 in rsrp and 3 not in before and now > 3.0
        seen["kept-silent"] |= 2 not in rsrp and 2 in held
        seen["short"] |= 4 in rsrp and rrs.predict(4, 1.0) is None
        seen["hole-kept"] |= not rsrp and 1 in held
        seen["hole-evicted"] |= not rsrp and 1 not in held
    assert all(seen.values()), seen


def test_empty_log_and_ablation():
    empty = _plan(np.empty(0), [], 1)
    assert _forecast_steps(empty, CONFIGS, PrognosConfig()) == []
    plan = _plan(*_stream(), 1)
    off = PrognosConfig(use_report_predictor=False)
    assert _forecast_steps(plan, CONFIGS, off) == [[] for _ in plan.step_inputs]
    assert any(_forecast_steps(plan, CONFIGS, PrognosConfig()))
