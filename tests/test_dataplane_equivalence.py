"""Batched data-plane engines pinned against their scalar references.

Every hot loop the event-segmented data plane replaced stays alive as a
reference implementation; this module asserts the fast paths reproduce
them — bit-for-bit where the op sequence is preserved (downloads, BBR,
Prognos) and to fluid-model precision (1e-8) where closed forms replace
tick recurrences (CUBIC).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.abr.algorithms import RateBased
from repro.apps.abr.player import PlayJob, play_many, _play_job
from repro.core import forecast_kernel
from repro.core.evaluation import (
    PrognosConfig,
    configs_for_log,
    run_prognos_over_logs,
    run_prognos_over_logs_reference,
    _replay_plan,
)
from repro.core.report_predictor import ReportPredictor
from repro.core.rrs_predictor import RRSPredictor
from repro.core.smoothing import TriangularKernelSmoother
from repro.net.emulation import BandwidthTrace, TraceDrivenLink
from repro.net.segments import TraceSegment, segment_capacity
from repro.net.tcp import TcpBbr, TcpCubic, simulate_tcp, simulate_tcp_reference
from repro.perf import Timer
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate.scenarios import city_walk_scenario

TICK_S = 0.04


def _outage_trace(seed: int, n: int = 12_000) -> np.ndarray:
    """A capacity series with handover-style zero-capacity stretches."""
    rng = np.random.default_rng(seed)
    caps = np.abs(rng.normal(120.0, 60.0, n))
    for start in rng.integers(0, n - 40, 12):
        caps[start : start + int(rng.integers(4, 30))] = 0.0
    return caps


# ---------------------------------------------------------------------------
# Capacity segmentation
# ---------------------------------------------------------------------------


class TestSegmentCapacity:
    def test_segments_tile_trace_and_flag_outages(self):
        caps = np.array([5.0, 3.0, 0.0, 0.0, 7.0, 0.0, 2.0])
        segments = segment_capacity(caps)
        assert segments == [
            TraceSegment(0, 2, False),
            TraceSegment(2, 4, True),
            TraceSegment(4, 5, False),
            TraceSegment(5, 6, True),
            TraceSegment(6, 7, False),
        ]
        assert sum(s.ticks for s in segments) == len(caps)

    def test_uniform_trace_is_one_segment(self):
        assert segment_capacity(np.full(5, 9.0)) == [TraceSegment(0, 5, False)]
        assert segment_capacity(np.zeros(3)) == [TraceSegment(0, 3, True)]

    def test_edge_cases(self):
        assert segment_capacity(np.empty(0)) == []
        with pytest.raises(ValueError):
            segment_capacity(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Segmented TCP vs the tick-by-tick reference
# ---------------------------------------------------------------------------


class TestTcpEquivalence:
    @pytest.mark.parametrize("make_cc", [TcpCubic, TcpBbr], ids=["cubic", "bbr"])
    def test_segmented_matches_reference(self, make_cc):
        caps = _outage_trace(7)
        ref = simulate_tcp_reference(make_cc(), caps, TICK_S)
        fast = simulate_tcp(make_cc(), caps, TICK_S)
        # Exact fields: the segmented engines replay the same discrete
        # decisions (loss ticks, sample grid).
        assert np.array_equal(ref.times_s, fast.times_s)
        assert np.array_equal(ref.lost, fast.lost)
        # Fluid state: bitwise for BBR, 1e-8 covers CUBIC's closed form.
        for field in ("goodput_mbps", "rtt_ms", "queue_bytes", "delivered_bytes"):
            np.testing.assert_allclose(
                getattr(fast, field), getattr(ref, field), rtol=1e-8, atol=1e-6,
                err_msg=field,
            )
        assert fast.sent_bytes == pytest.approx(ref.sent_bytes, rel=1e-8)
        assert fast.dropped_bytes == pytest.approx(ref.dropped_bytes, rel=1e-8, abs=1e-3)

    @pytest.mark.parametrize("make_cc", [TcpCubic, TcpBbr], ids=["cubic", "bbr"])
    def test_per_segment_delivered_bytes_match(self, make_cc):
        """Segment-level integration equals the tick loop's byte count."""
        caps = _outage_trace(11)
        ref = simulate_tcp_reference(make_cc(), caps, TICK_S)
        fast = simulate_tcp(make_cc(), caps, TICK_S)
        for segment in segment_capacity(caps):
            ref_sum = float(np.sum(ref.delivered_bytes[segment.start : segment.stop]))
            fast_sum = float(np.sum(fast.delivered_bytes[segment.start : segment.stop]))
            assert fast_sum == pytest.approx(ref_sum, rel=1e-8, abs=1e-3)

    @pytest.mark.parametrize("make_cc", [TcpCubic, TcpBbr], ids=["cubic", "bbr"])
    def test_byte_conservation_through_outages(self, make_cc):
        """Post-HO queue drains must not mint or lose bytes.

        Every byte the sender put on the wire is either delivered,
        still queued at the bottleneck, or dropped on overflow.
        """
        caps = _outage_trace(13)
        trace = simulate_tcp(make_cc(), caps, TICK_S)
        accounted = (
            trace.delivered_total_bytes
            + float(trace.queue_bytes[-1])
            + trace.dropped_bytes
        )
        assert accounted == pytest.approx(trace.sent_bytes, rel=1e-9, abs=1.0)
        # The per-tick delivered series is what the total summarises.
        assert trace.delivered_total_bytes == pytest.approx(
            float(np.sum(trace.delivered_bytes)), rel=1e-12
        )

    def test_non_fluid_controller_falls_back_to_reference(self):
        caps = _outage_trace(17, n=500)

        class OtherCc(TcpCubic):
            pass

        ref = simulate_tcp_reference(OtherCc(), caps, TICK_S)
        fast = simulate_tcp(OtherCc(), caps, TICK_S)
        assert np.array_equal(ref.goodput_mbps, fast.goodput_mbps)


# ---------------------------------------------------------------------------
# Vectorized chunk downloads vs the tick loop
# ---------------------------------------------------------------------------


def _trace(seed: int, n: int = 600, zero_head: int = 0) -> BandwidthTrace:
    rng = np.random.default_rng(seed)
    caps = np.abs(rng.normal(40.0, 25.0, n))
    caps[rng.random(n) < 0.05] = 0.0
    if zero_head:
        caps[:zero_head] = 0.0
    return BandwidthTrace(times_s=np.arange(n) * 0.05, capacity_mbps=caps)


class TestDownloadEquivalence:
    def test_bitwise_identical_download_times(self):
        link = TraceDrivenLink(_trace(3), loop=True)
        rng = np.random.default_rng(4)
        for _ in range(60):
            size = float(rng.uniform(1e4, 5e7))
            start = float(rng.uniform(0.0, 80.0))
            assert link.download_time_s(size, start) == link.download_time_reference_s(
                size, start
            )

    def test_zero_size_and_unlooped_trace(self):
        link = TraceDrivenLink(_trace(5), loop=False)
        assert link.download_time_s(0.0, 1.0) == 0.0
        assert link.download_time_s(2e6, 3.0) == link.download_time_reference_s(2e6, 3.0)

    def test_stall_error_parity(self):
        dead = BandwidthTrace(
            times_s=np.arange(100) * 0.05, capacity_mbps=np.zeros(100)
        )
        link = TraceDrivenLink(dead, loop=True)
        for method in (link.download_time_s, link.download_time_reference_s):
            with pytest.raises(RuntimeError, match="stalled"):
                method(1e6, 0.0, 10.0)


# ---------------------------------------------------------------------------
# Parallel VoD playback vs serial
# ---------------------------------------------------------------------------


class TestPlayMany:
    def _jobs(self) -> list[PlayJob]:
        return [(RateBased, _trace(seed, n=2400), None, None) for seed in (21, 22, 23)]

    def test_parallel_matches_serial(self):
        serial = play_many(self._jobs(), workers=1)
        parallel = play_many(self._jobs(), workers=2)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert a.levels == b.levels
            assert a.stall_s == b.stall_s
            assert a.mean_bitrate_mbps == b.mean_bitrate_mbps
            assert a.prediction_errors == b.prediction_errors

    def test_workers_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        jobs = self._jobs()[:2]
        assert [r.levels for r in play_many(jobs)] == [
            _play_job(job).levels for job in jobs
        ]


# ---------------------------------------------------------------------------
# Staged Prognos replay vs the tick-by-tick reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def walk_logs(mmwave_walk_log):
    """Two unrelated walks: exercises the per-log RRS reset."""
    second = city_walk_scenario(
        OPX, (BandClass.MMWAVE,), duration_min=4, seed=107
    ).run()
    return [mmwave_walk_log, second]


def _result_fields(result):
    return (
        result.times_s.tolist(),
        result.predictions,
        result.truths,
        result.events,
        result.lead_times_s,
    )


class TestPrognosEquivalence:
    def test_staged_matches_reference_bitwise(self, walk_logs):
        configs = configs_for_log(OPX, (BandClass.MMWAVE,))
        ref = run_prognos_over_logs_reference(walk_logs, configs, stride=4)
        fast = run_prognos_over_logs(walk_logs, configs, stride=4)
        assert _result_fields(fast) == _result_fields(ref)

    def test_worker_count_does_not_change_results(self, walk_logs):
        configs = configs_for_log(OPX, (BandClass.MMWAVE,))
        serial = run_prognos_over_logs(walk_logs, configs, stride=4)
        fanned = run_prognos_over_logs(walk_logs, configs, stride=4, workers=2)
        assert _result_fields(serial) == _result_fields(fanned)

    def test_batched_report_prediction_matches_scalar(self, mmwave_walk_log):
        config = PrognosConfig()
        plan = _replay_plan(mmwave_walk_log, 1.0, 8)

        def predictor():
            rrs = RRSPredictor(
                history_window_ticks=config.history_window_ticks,
                smoother_window=config.smoother_window,
            )
            return ReportPredictor(
                configs_for_log(OPX, (BandClass.MMWAVE,)),
                rrs,
                prediction_window_s=config.prediction_window_s,
            )

        scalar, batched = predictor(), predictor()
        fired = 0
        for now, (rsrp, serving, neighbours, scoped) in zip(
            plan.step_times, plan.step_inputs
        ):
            scalar.observe(now, rsrp)
            batched.observe(now, rsrp)
            a = scalar.predict_reports(serving, neighbours, scoped)
            b = batched.predict_reports_batched(serving, neighbours, scoped)
            assert [(r.label, r.fire_in_s, r.cell) for r in a] == [
                (r.label, r.fire_in_s, r.cell) for r in b
            ]
            fired += len(a)
        assert fired > 0  # the walk must actually produce forecasts


# ---------------------------------------------------------------------------
# Kernel smoothing vs the per-call loop
# ---------------------------------------------------------------------------


class TestSmoothingEquivalence:
    @pytest.mark.parametrize("window", [1, 3, 8, 16])
    def test_fast_series_is_bitwise_identical(self, window):
        """The forecast kernel's stacked smoothing equals
        ``smooth_series`` on every row, for windows shorter and longer
        than the kernel and for every clamped prefix length."""
        smoother = TriangularKernelSmoother(window=window)
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, window - 1, window, window + 1, 20, 200):
            if n < 1:
                continue
            rows = rng.normal(-95.0, 7.0, size=(9, n))
            fast = forecast_kernel.smooth(rows, window)
            for r in range(rows.shape[0]):
                slow = smoother.smooth_series(rows[r].copy())
                assert np.array_equal(fast[r], slow), (n, r)


# ---------------------------------------------------------------------------
# repro.perf.Timer
# ---------------------------------------------------------------------------


class TestTimer:
    def test_spans_accumulate(self):
        timer = Timer(echo=False)
        with timer.span("stage"):
            pass
        first = timer["stage"]
        with timer.span("stage"):
            pass
        assert timer["stage"] >= first
        assert timer.last_s >= 0.0

    def test_timed_returns_elapsed_and_result(self):
        timer = Timer(echo=False)
        elapsed, value = timer.timed("calc", lambda: 41 + 1)
        assert value == 42
        assert elapsed >= 0.0
        assert timer["calc"] == elapsed
