"""Cross-session streaming forecast engine — the serving perf core.

Each session keeps a :class:`StreamingForecaster`: its raw per-cell
RSRP histories (an :class:`~repro.core.rrs_predictor.RRSPredictor`'s,
with the same stale eviction and log-boundary reset) and its per-tick
config gating. Per tick, :meth:`StreamingForecaster.prepare` gates the
configs and copies the windows the tick must forecast out of the live
histories, as the offline replay does per step; the session may then
observe its next ticks before this one is forecast. The forecast and
trigger work is deferred to :func:`forecast_batch`, which runs it once
per engine pass over every taken tick: ticks whose sessions share an
event-config list (the server interns them) and a Prognos config form
a cohort, and each cohort is one call of the forecast kernel
(:func:`repro.core.forecast_kernel.forecast_reports`). The kernel
smooths every raw window, fits the length-grouped OLS and scans each
config's trigger condition over the cohort's stacked rows, with every
dot issued as a stacked ``matmul`` — so the reports are bit-identical
to the scalar :meth:`ReportPredictor.predict_reports`, which
``tests/test_serve_forecast.py`` pins tick for tick over full drives.
"""

from __future__ import annotations

from array import array

from repro.core import forecast_kernel
from repro.core.prognos import PrognosConfig
from repro.core.rrs_predictor import RRSPredictor
from repro.rrc.events import EventConfig


class StreamingForecaster:
    """Per-session RRS histories and config gating for the batch engine.

    ``rrs`` is the history to wrap — a serving session passes its
    Prognos's own (``report_predictor.rrs``), so the session holds one
    RRS history whichever engine feeds it. Omitted, the forecaster
    builds its own.
    """

    def __init__(
        self,
        event_configs: list[EventConfig],
        *,
        config: PrognosConfig | None = None,
        rrs: RRSPredictor | None = None,
    ) -> None:
        if not event_configs:
            raise ValueError("need at least one event config")
        config = config or PrognosConfig()
        #: Identity of this list keys the trigger cohort — the server
        #: interns equal config lists so sessions share one object.
        self.configs = event_configs
        self.meta = forecast_kernel.config_meta(event_configs)
        self.smoother_window = config.smoother_window
        self.window_s = config.prediction_window_s
        self.cohort = (id(event_configs), self.smoother_window, self.window_s)
        if rrs is None:
            rrs = RRSPredictor(
                history_window_ticks=config.history_window_ticks,
                smoother_window=config.smoother_window,
            )
        self.rrs = rrs

    def observe(self, time_s: float, rsrp_by_cell: dict) -> None:
        """Fold one tick into the histories (push + stale sweep)."""
        self.rrs.observe(time_s, rsrp_by_cell)

    def prepare(self, serving: dict, neighbours: dict, scoped_neighbours: dict | None):
        """The just-observed tick's gating plus a copy of its windows.

        Returns ``(active, row_of, times, values, lengths)``: the
        :func:`~repro.core.forecast_kernel.gate` configs, and the window
        of every needed cell that can be forecast, copied out of the
        histories by :func:`~repro.core.forecast_kernel.add_windows`.
        """
        active, cells = forecast_kernel.gate(
            self.meta, serving, neighbours, scoped_neighbours
        )
        times, values, lengths = array("d"), array("d"), []
        row_of = forecast_kernel.add_windows(
            cells, self.rrs._cells, times, values, lengths
        )
        return active, row_of, times, values, lengths


def forecast_batch(jobs: list[tuple[StreamingForecaster, tuple]]) -> list[list[tuple[str, float]]]:
    """Forecast + trigger evaluation for one engine pass of taken ticks.

    ``jobs`` holds one (forecaster, plan) pair per tick, several per
    session when it had several queued; ``plan`` is the
    :meth:`StreamingForecaster.prepare` made right after the tick was
    observed, and only its copied windows are read here. Returns,
    aligned with ``jobs``, the ``(label, fire_in_s)`` lists
    :meth:`ReportPredictor.predict_reports` would have produced at each
    tick, in the same (fire-time sorted, stable) order — bit-identical.
    """
    cohorts: dict[tuple, list[int]] = {}
    for j, (forecaster, _plan) in enumerate(jobs):
        cohorts.setdefault(forecaster.cohort, []).append(j)
    out: list = [None] * len(jobs)
    for members in cohorts.values():
        actives, row_ofs = [], []
        times, values, lengths = array("d"), array("d"), []
        for j in members:
            active, row_of, tick_times, tick_values, tick_lengths = jobs[j][1]
            base = len(lengths)
            actives.append(active)
            row_ofs.append({cell: base + r for cell, r in row_of.items()})
            times += tick_times
            values += tick_values
            lengths += tick_lengths
        head = jobs[members[0]][0]
        reports = forecast_kernel.forecast_reports(
            head.configs,
            actives,
            row_ofs,
            times,
            values,
            lengths,
            head.smoother_window,
            head.window_s,
        )
        for j, tick_reports in zip(members, reports):
            out[j] = [(label, fire) for label, fire, _cell in tick_reports]
    return out
