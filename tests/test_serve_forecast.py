"""Streaming forecaster equivalence: bit-identity with the scalar report
predictor, across staggered multi-session cohorts and resets, plus the
float-level pins of the forecast kernel underneath it."""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.core import forecast_kernel
from repro.core.evaluation import _replay_plan, configs_for_log
from repro.core.prognos import PrognosConfig
from repro.core.report_predictor import ReportPredictor
from repro.core.rrs_predictor import RRSPredictor
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.serve.forecast import StreamingForecaster, forecast_batch


def _reference_predictor(configs, config: PrognosConfig):
    rrs = RRSPredictor(
        history_window_ticks=config.history_window_ticks,
        smoother_window=config.smoother_window,
    )
    return ReportPredictor(
        configs, rrs, prediction_window_s=config.prediction_window_s
    )


def _forecasts(predictor, inputs):
    _, serving, neighbours, scoped = inputs
    return [
        (r.label, r.fire_in_s)
        for r in predictor.predict_reports(serving, neighbours, scoped)
    ]


def test_single_session_bit_identity(freeway_low_log):
    config = PrognosConfig()
    configs = configs_for_log(OPX, (BandClass.LOW,))
    plan = _replay_plan(freeway_low_log, 1.0, 1)
    reference = _reference_predictor(configs, config)
    streaming = StreamingForecaster(configs, config=config)
    for now, inputs in zip(plan.step_times, plan.step_inputs):
        rsrp = inputs[0]
        reference.observe(now, rsrp)
        streaming.observe(now, rsrp)
        expected = _forecasts(reference, inputs)
        tick_plan = streaming.prepare(inputs[1], inputs[2], inputs[3])
        (got,) = forecast_batch([(streaming, tick_plan)])
        assert got == expected


def test_mmwave_session_bit_identity(mmwave_walk_log):
    config = PrognosConfig()
    configs = configs_for_log(OPX, (BandClass.MMWAVE,))
    plan = _replay_plan(mmwave_walk_log, 1.0, 1)
    reference = _reference_predictor(configs, config)
    streaming = StreamingForecaster(configs, config=config)
    for now, inputs in zip(plan.step_times, plan.step_inputs):
        rsrp = inputs[0]
        reference.observe(now, rsrp)
        streaming.observe(now, rsrp)
        expected = _forecasts(reference, inputs)
        tick_plan = streaming.prepare(inputs[1], inputs[2], inputs[3])
        (got,) = forecast_batch([(streaming, tick_plan)])
        assert got == expected


def test_staggered_cohort_with_midstream_reset(freeway_low_log):
    """Three sessions offset in time, one reset mid-run, batched
    together every tick — each must still match its own per-session
    reference exactly."""
    config = PrognosConfig()
    configs = configs_for_log(OPX, (BandClass.LOW,))
    plan = _replay_plan(freeway_low_log, 1.0, 1)
    n = len(plan.step_times)
    offsets = [0, 7, 31]
    reset_at = {1: n // 3}  # session 1 resets a third of the way in
    references = [_reference_predictor(configs, config) for _ in offsets]
    streamings = [StreamingForecaster(configs, config=config) for _ in offsets]
    compared = 0
    for pos in range(n):
        jobs, expected = [], []
        for k, offset in enumerate(offsets):
            idx = pos - offset
            if idx < 0 or idx >= n:
                continue
            if reset_at.get(k) == idx:
                references[k] = _reference_predictor(configs, config)
                streamings[k].rrs.reset()
            now, inputs = plan.step_times[idx], plan.step_inputs[idx]
            references[k].observe(now, inputs[0])
            streamings[k].observe(now, inputs[0])
            expected.append(_forecasts(references[k], inputs))
            jobs.append(
                (streamings[k], streamings[k].prepare(inputs[1], inputs[2], inputs[3]))
            )
        got = forecast_batch(jobs)
        assert got == expected
        compared += len(jobs)
    assert compared > 2 * n  # the cohort really overlapped


def test_row_sum_matches_1d_sum():
    """Pin the reduction the forecast kernel leans on: ``.sum(axis=1)``
    over C-contiguous rows, and over the even-stride rows the kernel
    aligns its dot operands with, must equal each row's 1-D ``.sum()``
    bitwise. If a BLAS/numpy upgrade breaks this, the batched fit must
    go back to per-row sums."""
    rng = np.random.default_rng(7)
    for rows, cols in ((3, 5), (17, 16), (64, 20), (9, 19)):
        matrix = np.ascontiguousarray(rng.normal(-90.0, 7.0, size=(rows, cols)))
        padded = forecast_kernel._aligned_rows(rows, cols)
        padded[:] = matrix
        singly = np.array([matrix[r].copy().sum() for r in range(rows)])
        for batched in (matrix.sum(axis=1), padded.sum(axis=1)):
            assert all(
                batched[r] == singly[r] for r in range(rows)
            ), "row-wise sum is no longer bitwise-identical to 1-D sum"


def test_stacked_matmul_matches_per_row_dot():
    """Pin the kernel's dot rule: ``np.matmul(x[:, None, :], y)`` with a
    unit-stride summed axis runs each row through the same ``ddot`` as
    ``np.dot`` on that row, for every length the kernel uses and in each
    operand layout it uses: gathered rows and strided row slices of a
    wider matrix against one shared weight tail (sliced off a longer
    weight vector, as the smoother slices it), and row-by-row pairs
    against even-stride rows."""
    rng = np.random.default_rng(11)
    wide = rng.normal(-90.0, 7.0, size=(257, 27))
    weights = np.arange(1, 21, dtype=float)
    for n in range(1, 21):
        tail = weights[20 - n :]
        gathered = wide[rng.integers(0, wide.shape[0], 300)][:, :n]
        sliced = wide[:, 3 : 3 + n]
        other = forecast_kernel._aligned_rows(gathered.shape[0], n)
        other[:] = rng.normal(0.0, 3.0, size=other.shape)
        cases = (
            (gathered, tail[:, None], lambda r: np.dot(gathered[r], tail)),
            (sliced, tail[:, None], lambda r: np.dot(sliced[r], tail)),
            (gathered, other[:, :, None], lambda r: np.dot(gathered[r], other[r])),
        )
        for x, y, single in cases:
            stacked = np.matmul(x[:, None, :], y)[:, 0, 0]
            assert all(
                stacked[r] == single(r) for r in range(x.shape[0])
            ), f"stacked matmul drifted from np.dot at length {n}"


@pytest.mark.parametrize("stride", [1, 2])
def test_kernel_forecasts_match_rrs_predict(freeway_low_log, mmwave_walk_log, stride):
    """The kernel's 4-point forecast for every (step, cell) of a full
    drive, all fitted in one call, is byte-equal to
    :meth:`RRSPredictor.predict` on a predictor stepped through the same
    log."""
    config = PrognosConfig()
    for log in (freeway_low_log, mmwave_walk_log):
        plan = _replay_plan(log, 1.0, stride)
        rrs = RRSPredictor(
            history_window_ticks=config.history_window_ticks,
            smoother_window=config.smoother_window,
        )
        times, values, lengths, expected = array("d"), array("d"), [], []
        for now, inputs in zip(plan.step_times, plan.step_inputs):
            rrs.observe(now, inputs[0])
            cells = rrs.known_cells()
            row_of = forecast_kernel.add_windows(cells, rrs._cells, times, values, lengths)
            for cell in cells:
                forecast = rrs.predict(cell, config.prediction_window_s)
                assert (cell in row_of) == (forecast is not None)
                if forecast is not None:
                    expected.append(forecast)
        forecasts = forecast_kernel.forecast_windows(
            np.frombuffer(times),
            np.frombuffer(values),
            np.array(lengths, dtype=np.intp),
            config.smoother_window,
            config.prediction_window_s,
        )
        assert len(expected) > 4 * len(plan.step_times)
        assert len(set(lengths)) > 10  # warm-up lengths too
        assert forecasts[:-1].tobytes() == np.array(expected).tobytes()


def test_forecast_batch_warmup_returns_none():
    configs = configs_for_log(OPX, (BandClass.LOW,))
    streaming = StreamingForecaster(configs)
    # Fewer than 4 observed ticks: no forecast yet (matches the
    # reference predictor's minimum-history behaviour downstream).
    for t in (0.0, 1.0):
        streaming.observe(t, {10: -85.0})
    from repro.rrc.events import MeasurementObject

    serving = {MeasurementObject.LTE: 10, MeasurementObject.NR: None}
    neighbours = {MeasurementObject.LTE: [], MeasurementObject.NR: []}
    plan = streaming.prepare(serving, neighbours, neighbours)
    (got,) = forecast_batch([(streaming, plan)])
    assert got == []
