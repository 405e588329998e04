"""Cross-session streaming forecast engine — the serving perf core.

The offline batched pipeline (:meth:`RRSPredictor.predict_many` +
:meth:`ReportPredictor.predict_reports_batched`) is per-session: every
tick it converts each cell's history deque to fresh arrays, re-smooths
the whole window, runs one OLS per cell, and evaluates each event's
trigger matrix for that one session. This module restructures the same
arithmetic around the micro-batcher so the per-tick cost is shared
across sessions, while keeping the scalar op *order* — and therefore
bitwise-identical reports:

* **Incremental smoothing** — each cell's history lives in a ring
  (:class:`_CellRing`) that caches smoothed values keyed by the exact
  window slice that produced them. The triangular kernel at position
  ``j`` is ``dot(values[lo:j+1], tail)/norm`` with ``lo = max(start,
  j+1-K)``; entries whose window no longer starts at their cached
  ``lo`` recompute, the rest are reused. Full-window entries
  (``j+1-K >= start``) stay valid forever, so the steady state does 16
  dots per cell-tick instead of 20 — and never converts a deque.
* **Length-grouped OLS** — cells from *all* ready sessions with the
  same history length fit in one pass: the relative-time subtraction
  and the ``sum_t``/``sum_v`` reductions vectorise over a (cells, n)
  matrix (row sums of a C-contiguous matrix use the same pairwise
  reduction as the 1-D sums — pinned by test), the ``sum_tt``/
  ``sum_tv`` inner products stay per-row ``np.dot`` (BLAS ``ddot``
  sums in its own order; batching *those* would drift by ulps), and the
  forecast matrix is one broadcast.
* **Cohort trigger engine** — sessions sharing an event-config list
  form a cohort; each A3/A4/A5/B1 config evaluates its condition over
  one candidate matrix spanning every session in the batch, and the
  serving-only events (A1/A2/periodic) batch the same way. The
  sustained-trigger window-AND and first-hit ``argmax`` are the
  reference's own column ops, so the fire times match bit for bit.

``tests/test_serve_forecast.py`` pins the whole stack against
``predict_reports_batched`` tick-for-tick over full drives.
"""

from __future__ import annotations

import numpy as np

from repro.core.prognos import PrognosConfig
from repro.core.rrs_predictor import _future_grid
from repro.core.smoothing import TriangularKernelSmoother
from repro.rrc.events import EventConfig, EventType

#: Constants mirroring the RRSPredictor defaults the offline replay
#: uses (``_forecast_steps`` constructs it with these implicit values).
STALE_AFTER_S = 1.5
SLOPE_SHRINKAGE = 0.75
FORECAST_STEPS = 4

#: Shared smoother instances per window — the tails are immutable and
#: every session with the same smoother_window can share them.
_SMOOTHERS: dict[int, TriangularKernelSmoother] = {}


def _smoother_for(window: int) -> TriangularKernelSmoother:
    smoother = _SMOOTHERS.get(window)
    if smoother is None:
        smoother = TriangularKernelSmoother(window)
        _SMOOTHERS[window] = smoother
    return smoother


class _CellRing:
    """One cell's history window with a smoothed-value cache.

    ``times``/``values`` are rings of capacity ``2 * window``; the live
    window is ``[start, end)``. ``cache[j]`` holds the smoothed value
    computed at absolute slot ``j``; ``sm_start``/``sm_end`` record the
    window :meth:`smoothed` last saw, which determines validity by
    region instead of per-slot keys: a slot's value depends only on its
    clamp point ``lo = max(j + 1 - K, start)``, so slots past the
    clamped prefix (``j >= start + K - 1``) stay valid across window
    slides, while the prefix re-clamps against the new ``start`` and
    must be recomputed wholesale.
    """

    __slots__ = ("times", "values", "cache", "start", "end", "window", "K", "tails", "sm_start", "sm_end")

    def __init__(self, window: int, K: int, tails: list) -> None:
        capacity = 2 * window
        self.times = np.empty(capacity, dtype=float)
        self.values = np.empty(capacity, dtype=float)
        self.cache = np.empty(capacity, dtype=float)
        self.start = 0
        self.end = 0
        self.window = window
        self.K = K
        self.tails = tails
        self.sm_start = -1
        self.sm_end = -1

    @property
    def count(self) -> int:
        return self.end - self.start

    def push(self, time_s: float, value: float) -> None:
        end = self.end
        if end == self.times.size:
            # Compact: slide the live window to the front; the cache
            # region slides with it, validity intact.
            start = self.start
            count = end - start
            self.times[:count] = self.times[start:end]
            self.values[:count] = self.values[start:end]
            self.cache[:count] = self.cache[start:end]
            if self.sm_start >= 0:
                self.sm_start = max(self.sm_start - start, 0)
                self.sm_end = max(self.sm_end - start, 0)
            self.start = 0
            self.end = end = count
        self.times[end] = time_s
        self.values[end] = value
        self.end = end + 1
        if self.end - self.start > self.window:
            self.start += 1

    def last_time(self) -> float:
        return float(self.times[self.end - 1])

    def times_window(self) -> np.ndarray:
        return self.times[self.start : self.end]

    def smoothed(self, out: np.ndarray | None = None) -> np.ndarray:
        """Smoothed live window, bit-identical to ``smooth_series_fast``
        over a fresh copy of the same values (same slices, same dots).
        ``out`` lets the length-grouped fit write straight into its row
        of the (cells, n) matrix instead of allocating per cell.
        """
        start, end = self.start, self.end
        values = self.values
        cache = self.cache
        K = self.K
        tails = self.tails
        if out is None:
            out = np.empty(end - start)
        # ndarray.dot is the same C routine as np.dot minus the
        # __array_function__ dispatcher — measurably cheaper at these
        # sizes, bit-identical by construction.
        dot = np.ndarray.dot
        sm_start, sm_end = self.sm_start, self.sm_end
        if sm_start == start:
            # Window start unchanged: every previously smoothed slot is
            # still clamped the same way; only appended slots are new.
            done = sm_end
        elif sm_start >= 0:
            # The window slid: the clamped prefix (lo pinned at start)
            # re-clamps against the new start — recompute it, then copy
            # the stable full-tail region straight out of the cache.
            boundary = start + K - 1
            if boundary > end:
                boundary = end
            for j in range(start, boundary):
                weights, norm = tails[j - start]
                out[j - start] = cache[j] = (
                    dot(values[start : j + 1], weights) / norm
                )
            done = sm_end if sm_end > boundary else boundary
        else:
            done = start  # fresh ring: nothing cached
        if done > end:
            done = end
        copy_from = start + K - 1 if 0 <= sm_start < start else start
        if done > copy_from:
            out[copy_from - start : done - start] = cache[copy_from:done]
        for j in range(done, end):
            lo = j + 1 - K
            if lo < start:
                lo = start
            weights, norm = tails[j - lo]
            out[j - start] = cache[j] = dot(values[lo : j + 1], weights) / norm
        self.sm_start = start
        self.sm_end = end
        return out


class TickPlan:
    """One session's gated configs + forecast cells for the tick."""

    __slots__ = ("active", "cells")

    def __init__(self, active: list, cells: list) -> None:
        self.active = active
        self.cells = cells


class StreamingForecaster:
    """Per-session replacement for the RRS + report predictor pair.

    Holds the same observable state (per-cell histories with stale
    eviction, reset at log boundaries) but defers the per-tick forecast
    and trigger work to :func:`forecast_batch`, which amortises it
    across every session ready in the same micro-batch.
    """

    def __init__(
        self,
        event_configs: list[EventConfig],
        *,
        config: PrognosConfig | None = None,
    ) -> None:
        if not event_configs:
            raise ValueError("need at least one event config")
        config = config or PrognosConfig()
        if config.history_window_ticks < 4:
            raise ValueError("history window too short for a regression")
        #: Identity of this list keys the trigger cohort — the server
        #: interns equal config lists so sessions share one object.
        self.configs = event_configs
        self.config_meta = [
            (
                c,
                c.event,
                c.event.needs_neighbour,
                c.intra_node_only or c.intra_frequency_only,
                c.measurement,
                c.needs_serving,
                c.only_when_detached,
            )
            for c in event_configs
        ]
        self.window = config.history_window_ticks
        self.window_s = config.prediction_window_s
        self.steps = FORECAST_STEPS
        smoother = _smoother_for(config.smoother_window)
        self._K = smoother.window
        self._tails = smoother._tails
        self._cells: dict[object, _CellRing] = {}

    def observe(self, time_s: float, rsrp_by_cell: dict) -> None:
        """Mirror of :meth:`RRSPredictor.observe` (push + stale sweep)."""
        cells = self._cells
        for cell, rsrp in rsrp_by_cell.items():
            ring = cells.get(cell)
            if ring is None:
                ring = _CellRing(self.window, self._K, self._tails)
                cells[cell] = ring
            ring.push(time_s, rsrp)
        if len(cells) == len(rsrp_by_cell):
            # Every tracked cell was just pushed; nothing can be stale.
            return
        stale = [
            cell
            for cell, ring in cells.items()
            if time_s - ring.last_time() > STALE_AFTER_S
        ]
        for cell in stale:
            del cells[cell]

    def reset(self) -> None:
        """Log boundary: drop all radio history (``Prognos.start_log``)."""
        self._cells.clear()

    def prepare(self, serving: dict, neighbours: dict, scoped_neighbours: dict | None) -> TickPlan:
        """Pass-1 gating, identical to ``predict_reports_batched``."""
        active: list = []
        cells: list = []
        seen: set = set()
        for (
            config,
            event,
            needs_neighbour,
            scoping,
            measurement,
            needs_serving,
            only_when_detached,
        ) in self.config_meta:
            serving_cell = serving.get(measurement)
            if (needs_serving and serving_cell is None) or (
                only_when_detached and serving_cell is not None
            ):
                continue
            if needs_neighbour:
                if scoping and scoped_neighbours is not None:
                    candidates = scoped_neighbours.get(measurement, [])
                else:
                    candidates = neighbours.get(measurement, [])
            else:
                candidates = []
            active.append((config, event, needs_neighbour, serving_cell, candidates))
            if serving_cell is not None and serving_cell not in seen:
                seen.add(serving_cell)
                cells.append(serving_cell)
            for cell in candidates:
                if cell not in seen:
                    seen.add(cell)
                    cells.append(cell)
        return TickPlan(active, cells)


# ----------------------------------------------------------------------
# Batched forecast + trigger evaluation
# ----------------------------------------------------------------------


def _fit_group(entries: list, n: int, window_s: float, steps: int) -> None:
    """One OLS pass over every cell (any session) with history length n.

    ``entries`` holds ``(ring, fdict, cell)`` sinks; each gets its
    forecast row written into its session's forecast dict.
    """
    count = len(entries)
    future = _future_grid(window_s, steps)
    T = np.empty((count, n))
    V = np.empty((count, n))
    for r, (ring, _fdict, _cell) in enumerate(entries):
        T[r] = ring.times_window()
        ring.smoothed(out=V[r])
    T_rel = T - T[:, -1][:, None]
    sum_t = T_rel.sum(axis=1)
    sum_v = V.sum(axis=1)
    sum_tt = np.empty(count)
    sum_tv = np.empty(count)
    for r in range(count):
        row = T_rel[r]
        sum_tt[r] = row.dot(row)
        sum_tv[r] = row.dot(V[r])
    denom = n * sum_tt - sum_t * sum_t
    degenerate = np.abs(denom) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (n * sum_tv - sum_t * sum_v) / denom
        intercept = (sum_v - slope * sum_t) / n
    if degenerate.any():
        slope[degenerate] = 0.0
        intercept[degenerate] = V[degenerate].mean(axis=1)
    slope *= SLOPE_SHRINKAGE
    out = intercept[:, None] + slope[:, None] * future[None, :]
    for r, (_ring, fdict, cell) in enumerate(entries):
        fdict[cell] = out[r]


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """Row-copy stack; avoids ``np.vstack``'s atleast_2d/concatenate
    overhead on the hot path. Pure copies — bitwise-neutral."""
    out = np.empty((len(rows), rows[0].shape[0]))
    for r, row in enumerate(rows):
        out[r] = row
    return out


def _sustained_ok(cond: np.ndarray, needed: int, steps: int) -> np.ndarray:
    """ok[:, j] == condition held over steps j..j+needed-1 (reference op)."""
    if needed == 1:
        return cond
    ok = cond[:, needed - 1 :].copy()
    for d in range(1, needed):
        ok &= cond[:, needed - 1 - d : steps - d]
    return ok


def _run_cohort(
    configs: list[EventConfig],
    job_ids: list[int],
    jobs: list,
    fdicts: list[dict],
    results: list[list],
) -> None:
    """Evaluate every config across the cohort's ready sessions."""
    forecaster = jobs[job_ids[0]][0]
    steps = forecaster.steps
    step_s = forecaster.window_s / steps
    neg_inf: np.ndarray | None = None
    cursors = [0] * len(job_ids)
    for config in configs:
        participants: list[tuple[int, tuple]] = []
        for pos, ji in enumerate(job_ids):
            plan = jobs[ji][1]
            cursor = cursors[pos]
            active = plan.active
            if cursor < len(active) and active[cursor][0] is config:
                participants.append((ji, active[cursor]))
                cursors[pos] = cursor + 1
        if not participants:
            continue
        event = config.event
        hys = config.hysteresis_db
        label = config.label
        if event.needs_neighbour:
            needed = int(np.ceil(config.time_to_trigger_s / step_s))
            if needed < 1:
                needed = 1
            if needed > steps:
                continue
            rows: list[np.ndarray] = []
            row_meta: list[tuple[int, object]] = []
            serving_rows: list[np.ndarray] = []
            counts: list[int] = []
            for ji, (_c, _e, _nn, serving_cell, candidates) in participants:
                fdict = fdicts[ji]
                cand = [
                    (cell, fdict.get(cell))
                    for cell in candidates
                ]
                cand = [(cell, series) for cell, series in cand if series is not None]
                if not cand:
                    continue
                for cell, series in cand:
                    rows.append(series)
                    row_meta.append((ji, cell))
                serving_series = (
                    fdict.get(serving_cell) if serving_cell is not None else None
                )
                if serving_series is None:
                    if neg_inf is None:
                        neg_inf = np.full(steps, float("-inf"))
                    serving_series = neg_inf
                serving_rows.append(serving_series)
                counts.append(len(cand))
            if not rows:
                continue
            matrix = _stack(rows)
            if event is EventType.A3:
                # Scalar adds broadcast elementwise in the same order as
                # the per-row expression, so stacking first is bitwise
                # neutral.
                thresh = (_stack(serving_rows) + config.offset_db) + hys
                cond = matrix > np.repeat(thresh, counts, axis=0)
            elif event is EventType.A5:
                serving_ok = (_stack(serving_rows) + hys) < config.threshold_dbm
                cond = np.repeat(serving_ok, counts, axis=0) & (
                    (matrix - hys) > config.threshold2_dbm
                )
            else:  # A4 / B1
                cond = (matrix - hys) > config.threshold_dbm
            ok = _sustained_ok(cond, needed, steps)
            hit = ok.any(axis=1)
            if hit.any():
                first = ok.argmax(axis=1)
                for r, (ji, cell) in enumerate(row_meta):
                    if hit[r]:
                        results[ji].append(
                            (label, (int(first[r]) + needed) * step_s, cell)
                        )
        else:
            # Serving-only events (A1/A2/periodic), batched across the
            # cohort; equivalent to the reference's scalar scan.
            needed = max(int(np.ceil(config.time_to_trigger_s / step_s)), 1)
            if needed > steps:
                continue
            rows = []
            row_jis: list[int] = []
            for ji, (_c, _e, _nn, serving_cell, _cands) in participants:
                serving_series = (
                    fdicts[ji].get(serving_cell) if serving_cell is not None else None
                )
                if serving_series is None:
                    continue
                rows.append(serving_series)
                row_jis.append(ji)
            if not rows:
                continue
            S = _stack(rows)
            if event is EventType.A1:
                cond = (S - hys) > config.threshold_dbm
            elif event is EventType.A2:
                cond = (S + hys) < config.threshold_dbm
            else:  # PERIODIC
                cond = np.ones(S.shape, dtype=bool)
            ok = _sustained_ok(cond, needed, steps)
            hit = ok.any(axis=1)
            if hit.any():
                first = ok.argmax(axis=1)
                for r, ji in enumerate(row_jis):
                    if hit[r]:
                        results[ji].append(
                            (label, (int(first[r]) + needed) * step_s, None)
                        )


def forecast_batch(jobs: list[tuple[StreamingForecaster, TickPlan]]) -> list[list[tuple[str, float]]]:
    """Forecast + trigger evaluation for one micro-batch of ready ticks.

    ``jobs`` holds one (forecaster, plan) pair per ready session — the
    session must already have :meth:`StreamingForecaster.observe`-d the
    tick. Returns, aligned with ``jobs``, the ``(label, fire_in_s)``
    lists ``predict_reports_batched`` would have produced, in the same
    (fire-time sorted, stable) order — bit-identical.
    """
    results: list[list] = [[] for _ in jobs]
    fdicts: list[dict] = [{} for _ in jobs]
    groups: dict[tuple, list] = {}
    for ji, (forecaster, plan) in enumerate(jobs):
        if not plan.active:
            continue
        rings = forecaster._cells
        fdict = fdicts[ji]
        for cell in plan.cells:
            ring = rings.get(cell)
            if ring is None or ring.count < 4:
                fdict[cell] = None
            else:
                key = (ring.count, forecaster.window_s, forecaster.steps)
                groups.setdefault(key, []).append((ring, fdict, cell))
    for (n, window_s, steps), entries in groups.items():
        _fit_group(entries, n, window_s, steps)

    cohorts: dict[int, list[int]] = {}
    for ji, (forecaster, plan) in enumerate(jobs):
        if not plan.active:
            continue
        cohorts.setdefault(id(forecaster.configs), []).append(ji)
    for job_ids in cohorts.values():
        _run_cohort(jobs[job_ids[0]][0].configs, job_ids, jobs, fdicts, results)

    out: list[list[tuple[str, float]]] = []
    for reports in results:
        reports.sort(key=lambda item: item[1])
        out.append([(label, fire) for label, fire, _cell in reports])
    return out
