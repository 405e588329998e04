"""Chunked 16K panoramic VoD player (§7.4's first case study).

The paper's setup: a 120-second video in 60 two-second chunks encoded at
6 quality levels (720p → 16K), streamed over recorded bandwidth traces
through Mahimahi. The player downloads chunk by chunk, maintains a
playout buffer, and asks its ABR algorithm (fed by a throughput
predictor, optionally HO-corrected) for each chunk's level. Outputs the
Fig. 14a axes: time-on-stall percentage and normalised bitrate, plus the
Fig. 14b throughput-prediction errors split by handover proximity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.apps.abr.algorithms import AbrAlgorithm
from repro.apps.abr.prediction import (
    HarmonicMeanPredictor,
    PredictionFeed,
    effective_score,
)
from repro.net.emulation import BandwidthTrace, TraceDrivenLink
from repro.robust.supervisor import supervised_map

#: 16K panoramic ladder (Mbps): 720p, 1080p, 2K, 4K, 8K, 16K.
VIDEO_LEVELS_MBPS = [6.0, 12.0, 24.0, 50.0, 105.0, 210.0]

CHUNK_SECONDS = 2.0
CHUNK_COUNT = 60
MAX_BUFFER_S = 16.0


@dataclass(frozen=True)
class VodResult:
    """One playback session's QoE."""

    algorithm: str
    levels: list[int]
    stall_s: float
    video_s: float
    mean_bitrate_mbps: float
    prediction_errors: list[tuple[float, float, bool]]
    #: (predicted, actual, was a HO within the chunk download)

    @property
    def stall_pct(self) -> float:
        return 100.0 * self.stall_s / (self.video_s + self.stall_s)

    @property
    def normalized_bitrate(self) -> float:
        return self.mean_bitrate_mbps / VIDEO_LEVELS_MBPS[-1]

    def prediction_mae(self, *, near_ho: bool) -> float:
        """Mean absolute throughput-prediction error (Mbps), Fig. 14b."""
        errors = [
            abs(p - a) for p, a, ho in self.prediction_errors if ho == near_ho
        ]
        if not errors:
            return 0.0
        return float(np.mean(errors))


class VodPlayer:
    """Replays the 16K VoD workload over one bandwidth trace."""

    def __init__(
        self,
        algorithm: AbrAlgorithm,
        *,
        feed: PredictionFeed | None = None,
        levels_mbps: list[float] | None = None,
        chunk_s: float = CHUNK_SECONDS,
        chunks: int = CHUNK_COUNT,
        max_buffer_s: float = MAX_BUFFER_S,
    ):
        self._algorithm = algorithm
        self._feed = feed
        self._levels = levels_mbps or list(VIDEO_LEVELS_MBPS)
        self._chunk_s = chunk_s
        self._chunks = chunks
        self._max_buffer = max_buffer_s

    def play(
        self,
        trace: BandwidthTrace,
        events: list[tuple[float, object]] | None = None,
    ) -> VodResult:
        """Play the whole video over ``trace``.

        Args:
            trace: the bandwidth trace (looped if shorter than playback).
            events: actual handover times (used only to tag prediction
                errors for the Fig. 14b analysis).
        """
        link = TraceDrivenLink(trace, loop=True)
        predictor = HarmonicMeanPredictor()
        t = 0.0
        buffer_s = 0.0
        stall = 0.0
        level = 0
        chosen: list[int] = []
        errors: list[tuple[float, float, bool]] = []
        for chunk_index in range(self._chunks):
            base_prediction = predictor.predict_mbps()
            prediction = base_prediction
            if self._feed is not None:
                score = effective_score(self._feed.score_at(t % trace.duration_s))
                prediction = base_prediction * score
            level = self._algorithm.select(
                self._levels, buffer_s, level, prediction, self._chunk_s
            )
            chosen.append(level)
            size_bytes = self._levels[level] * 1e6 / 8.0 * self._chunk_s
            download_s = link.download_time_s(size_bytes, t)
            actual_mbps = self._levels[level] * self._chunk_s / max(download_s, 1e-6)
            near_ho = False
            if events:
                trace_t = t % trace.duration_s
                near_ho = any(
                    trace_t - 1.0 <= e <= trace_t + download_s + 1.0 for e, _ in events
                )
            errors.append((prediction, actual_mbps, near_ho))
            predictor.observe(actual_mbps)
            self._algorithm.observe_error(prediction, actual_mbps)
            t += download_s
            if download_s > buffer_s:
                # The first chunk's wait is startup/join time, not a
                # rebuffering stall.
                if chunk_index > 0:
                    stall += download_s - buffer_s
                buffer_s = 0.0
            else:
                buffer_s -= download_s
            buffer_s += self._chunk_s
            if buffer_s > self._max_buffer:
                wait = buffer_s - self._max_buffer
                t += wait
                buffer_s = self._max_buffer
        mean_bitrate = float(np.mean([self._levels[l] for l in chosen]))
        return VodResult(
            algorithm=self._algorithm.name + ("" if self._feed is None else "+feed"),
            levels=chosen,
            stall_s=stall,
            video_s=self._chunks * self._chunk_s,
            mean_bitrate_mbps=mean_bitrate,
            prediction_errors=errors,
        )


#: One playback session: (algorithm_factory, trace, feed, events). The
#: factory is called in the worker so every session gets a fresh
#: algorithm instance and the job tuple stays picklable.
PlayJob = tuple[
    Callable[[], AbrAlgorithm],
    BandwidthTrace,
    "PredictionFeed | None",
    "list[tuple[float, object]] | None",
]


def _play_job(job: PlayJob) -> VodResult:
    # Module-level so the pool pickles it by reference.
    factory, trace, feed, events = job
    return VodPlayer(factory(), feed=feed).play(trace, events)


def play_many(jobs: Iterable[PlayJob], *, workers: int | None = None) -> list[VodResult]:
    """Play many independent sessions, fanned out over processes.

    Sessions are independent (each builds its own link/predictor), so
    they fan out exactly like :func:`repro.simulate.runner.run_drives`,
    through :func:`repro.robust.supervisor.supervised_map`: where
    ``fork`` exists the job list (traces included) is inherited and
    each worker job is just an index. Results come back in job order
    regardless of worker count. The pass is supervised: a crashed or
    hung session is retried (deadline ``REPRO_JOB_TIMEOUT_S``) and the
    pool degrades to serial execution rather than losing the run.

    Args:
        jobs: ``(algorithm_factory, trace, feed, events)`` tuples.
        workers: process count. None reads ``REPRO_BENCH_WORKERS``
            (default 1 = serial in-process).
    """
    from repro.simulate.runner import default_workers

    if workers is None:
        workers = default_workers()
    return supervised_map(_play_job, jobs, workers)
