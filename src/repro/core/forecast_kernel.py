"""The batched report forecast: smoothing, OLS fit and trigger scan.

This is the one fast implementation of §7.2's report predictor. The
offline replay calls it once per block of a log's steps
(:func:`forecast_reports` over every (step, needed cell) window of the
block), and the server once per micro-batch cohort
(:func:`forecast_histories`). The scalar oracle it must match bit for bit
is :meth:`ReportPredictor.predict_reports` on :meth:`RRSPredictor.predict`
and :meth:`TriangularKernelSmoother.smooth_series`.

Bit-identity rules:

* **Every dot is a stacked ``matmul``.** ``np.matmul(x[:, None, :],
  y[:, :, None])`` multiplies a 1 x n row by an n x 1 column per outer
  index, and numpy runs each of those through the same ``cblas_ddot``
  as ``np.dot`` on the row pair. Plain ``X @ w`` is ``dgemv``, which sums
  in another order. Each operand needs a positive unit stride on the
  summed axis: an operand broadcast along it (stride 0) silently takes
  numpy's non-BLAS loop.
* **Second operands keep the oracle's 16-byte alignment.** Some
  OpenBLAS ``ddot`` kernels (``Prescott``) round differently when ``y``
  is not 16-byte aligned. The oracle's ``y`` operands are fresh arrays
  (aligned) and weight tails sliced ``K - size`` places into a fresh
  weight vector, so the kernel's ``y`` rows start on even offsets of
  even-stride buffers, and its weight tails are sliced the same way.
* **Row sums stay ``.sum(axis=1)``**, which equals each row's 1-D
  pairwise ``.sum()`` (pinned by test); every other op is elementwise in
  the oracle's order.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter

import numpy as np

from repro.rrc.events import EventType

#: A cell unheard for longer than this is forgotten; its history restarts.
STALE_AFTER_S = 1.5
#: James-Stein-style damping of the extrapolated OLS slope.
SLOPE_SHRINKAGE = 0.75
#: Forecast points over the prediction window.
FORECAST_STEPS = 4

#: Shared (horizon_s, steps) -> linspace grid cache.
_FUTURE_GRIDS: dict[tuple[float, int], np.ndarray] = {}
#: Per (smoother window K, window length n): see :func:`_tails`.
_TAILS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _future_grid(horizon_s: float, steps: int) -> np.ndarray:
    key = (horizon_s, steps)
    grid = _FUTURE_GRIDS.get(key)
    if grid is None:
        grid = np.linspace(horizon_s / steps, horizon_s, steps)
        grid.setflags(write=False)
        _FUTURE_GRIDS[key] = grid
    return grid


def _tails(K: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights 1..K and, per window position 0..n-1, its tail's norm."""
    tails = _TAILS.get((K, n))
    if tails is None:
        weights = np.arange(1, K + 1, dtype=float)
        # Position j's tail holds the newest min(j + 1, K) weights; its
        # norm is the float ``smooth_series`` recomputes per position.
        norms = np.array([float(weights[K - min(j + 1, K) :].sum()) for j in range(n)])
        weights.setflags(write=False)
        norms.setflags(write=False)
        tails = _TAILS[(K, n)] = (weights, norms)
    return tails


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """An empty (rows, n) view whose rows all start 16-byte aligned.

    Rows sit an even number of floats apart in a fresh (16-byte
    aligned) allocation.
    """
    return np.empty((rows, n + (n & 1)))[:, :n]


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.dot(x[r], y[r])`` for every row r, as one stacked matmul."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def smooth(raw: np.ndarray, smoother_window: int) -> np.ndarray:
    """Triangular-kernel smoothing of each row of ``raw`` (rows, n).

    Equals :meth:`TriangularKernelSmoother.smooth_series` on each row:
    one matmul per window position over every row's tail (clamped to
    the row start before the first full kernel), then one division by
    each position's norm.
    """
    rows, n = raw.shape
    K = smoother_window
    weights, norms = _tails(K, n)
    out = _aligned_rows(rows, n)
    for j in range(n):
        size = min(j + 1, K)
        np.matmul(
            raw[:, None, j + 1 - size : j + 1],
            weights[K - size :, None],
            out=out[:, j, None, None],
        )
    return np.divide(out, norms, out=out)


def fit(
    times: np.ndarray, raw: np.ndarray, smoother_window: int, horizon_s: float
) -> np.ndarray:
    """(rows, FORECAST_STEPS) forecasts from same-length (rows, n) windows.

    Row r equals :meth:`RRSPredictor.predict` on a history holding
    ``times[r]`` and ``raw[r]``: smooth, closed-form OLS over time
    relative to the last sample, shrink the slope, extrapolate.
    """
    rows, n = times.shape
    t_rel = _aligned_rows(rows, n)
    np.subtract(times, times[:, -1:], out=t_rel)
    values = smooth(raw, smoother_window)
    sum_t = t_rel.sum(axis=1)
    sum_v = values.sum(axis=1)
    sum_tt = _row_dots(t_rel, t_rel)
    sum_tv = _row_dots(t_rel, values)
    denom = n * sum_tt - sum_t * sum_t
    degenerate = np.abs(denom) < 1e-12
    any_degenerate = degenerate.any()
    if any_degenerate:
        denom[degenerate] = 1.0  # overwritten below; keeps the division quiet
    slope = (n * sum_tv - sum_t * sum_v) / denom
    intercept = (sum_v - slope * sum_t) / n
    if any_degenerate:
        slope[degenerate] = 0.0
        intercept[degenerate] = values[degenerate].mean(axis=1)
    slope *= SLOPE_SHRINKAGE
    future = _future_grid(horizon_s, FORECAST_STEPS)
    return intercept[:, None] + slope[:, None] * future[None, :]


def forecast_windows(
    times: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
    smoother_window: int,
    horizon_s: float,
) -> np.ndarray:
    """Forecast windows laid end to end in flat sample arrays.

    Window r is the ``lengths[r]`` samples of ``times``/``values`` after
    window r - 1. Windows are fitted in one :func:`fit` per length.
    Returns (windows + 1, FORECAST_STEPS): row r is window r's forecast
    and the last row is all ``-inf``, the stand-in for a serving cell
    with no forecast.
    """
    starts = np.cumsum(lengths) - lengths
    out = np.empty((len(lengths) + 1, FORECAST_STEPS))
    out[-1] = -np.inf
    for n in sorted(set(lengths.tolist())):
        rows = np.flatnonzero(lengths == n)
        index = starts[rows, None] + np.arange(n)
        out[rows] = fit(times[index], values[index], smoother_window, horizon_s)
    return out


# ----------------------------------------------------------------------
# Gating and the trigger scan
# ----------------------------------------------------------------------


def config_meta(configs: list) -> list[tuple]:
    """Per config, the static facts :func:`gate` reads."""
    return [
        (
            c.measurement,
            c.needs_serving,
            c.only_when_detached,
            c.event.needs_neighbour,
            c.intra_node_only or c.intra_frequency_only,
        )
        for c in configs
    ]


def gate(meta: list[tuple], serving: dict, neighbours: dict, scoped: dict | None):
    """One step's configuration gating and the cells it must forecast.

    Returns ``(active, cells)``: ``active`` lists ``(config index,
    serving cell, candidates)`` for each config the UE holds this step
    (the UE-side gating of ``rrc.events``), and ``cells`` every serving
    cell and candidate once, in first-seen order.
    """
    active: list = []
    cells: list = []
    seen: set = set()
    for k, facts in enumerate(meta):
        measurement, needs_serving, only_when_detached, needs_neighbour, scoping = facts
        serving_cell = serving.get(measurement)
        if (needs_serving and serving_cell is None) or (
            only_when_detached and serving_cell is not None
        ):
            continue
        if not needs_neighbour:
            candidates = ()
        elif scoping and scoped is not None:
            candidates = scoped.get(measurement, [])
        else:
            candidates = neighbours.get(measurement, [])
        active.append((k, serving_cell, candidates))
        if serving_cell is not None and serving_cell not in seen:
            seen.add(serving_cell)
            cells.append(serving_cell)
        for cell in candidates:
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
    return active, cells


def _sustained_ok(cond: np.ndarray, needed: int) -> np.ndarray:
    """ok[:, j] == condition held over steps j..j+needed-1."""
    if needed == 1:
        return cond
    steps = cond.shape[1]
    ok = cond[:, needed - 1 :].copy()
    for d in range(1, needed):
        ok &= cond[:, needed - 1 - d : steps - d]
    return ok


def first_fires(config, serving: np.ndarray, cand: np.ndarray | None, step_s: float):
    """The first sustained fire of ``config`` on each stacked row.

    ``serving`` holds each row's serving forecast (``-inf`` when it has
    none) and ``cand`` the candidate forecasts of a neighbour event
    (None for serving-only events). Returns ``(rows that fire, fire
    times)``: a row fires at the end of the first run of
    time-to-trigger steps over which the Table 4 condition holds, as
    :meth:`ReportPredictor._first_sustained_trigger` scans it.
    """
    steps = serving.shape[1]
    needed = max(math.ceil(config.time_to_trigger_s / step_s), 1)
    if needed > steps:
        return [], []
    hys = config.hysteresis_db
    event = config.event
    if event is EventType.A3:
        cond = cand > (serving + config.offset_db) + hys
    elif event is EventType.A5:
        cond = ((serving + hys) < config.threshold_dbm) & (
            (cand - hys) > config.threshold2_dbm
        )
    elif event is EventType.A4 or event is EventType.B1:
        cond = (cand - hys) > config.threshold_dbm
    elif event is EventType.A1:
        cond = (serving - hys) > config.threshold_dbm
    elif event is EventType.A2:
        cond = (serving + hys) < config.threshold_dbm
    else:  # PERIODIC
        cond = np.ones(serving.shape, dtype=bool)
    ok = _sustained_ok(cond, needed)
    hit = ok.any(axis=1).nonzero()[0]
    if not hit.size:
        return [], []
    fires = (ok[hit].argmax(axis=1) + needed) * step_s
    return hit.tolist(), fires.tolist()


def trigger_reports(
    configs: list,
    actives: list[list],
    row_ofs: list[dict],
    forecasts: np.ndarray,
    step_s: float,
) -> list[list[tuple]]:
    """Report lists for many steps (or sessions) sharing ``configs``.

    ``actives[j]`` is step j's :func:`gate` output, ``row_ofs[j]`` maps
    each of its cells that has a forecast to its row of ``forecasts``
    (see :func:`forecast_windows`). Each config's condition runs once
    over every step's rows. Returns, per step, ``(label, fire_in_s,
    cell)`` sorted by fire time, ties in config then candidate order —
    the list :meth:`ReportPredictor.predict_reports` returns.
    """
    neighbour_event = [c.event.needs_neighbour for c in configs]
    cand_rows: list[list[int]] = [[] for _ in configs]
    serving_rows: list[list[int]] = [[] for _ in configs]
    owners: list[list[tuple]] = [[] for _ in configs]
    for j, (active, row_of) in enumerate(zip(actives, row_ofs)):
        for k, serving_cell, candidates in active:
            s = row_of.get(serving_cell, -1)
            if neighbour_event[k]:
                for cell in candidates:
                    r = row_of.get(cell)
                    if r is not None:
                        cand_rows[k].append(r)
                        serving_rows[k].append(s)
                        owners[k].append((j, cell))
            elif s >= 0:
                serving_rows[k].append(s)
                owners[k].append((j, None))
    results: list[list[tuple]] = [[] for _ in actives]
    for k, config in enumerate(configs):
        if not owners[k]:
            continue
        cand = forecasts[cand_rows[k]] if neighbour_event[k] else None
        hit, fires = first_fires(config, forecasts[serving_rows[k]], cand, step_s)
        label = config.label
        owner = owners[k]
        for r, fire in zip(hit, fires):
            j, cell = owner[r]
            results[j].append((label, fire, cell))
    for reports in results:
        if len(reports) > 1:
            reports.sort(key=itemgetter(1))
    return results


def add_windows(
    cells: list, histories: dict, times: array, values: array, lengths: list
) -> dict:
    """Append the window of each of ``cells`` that can be forecast.

    ``histories`` maps cells to
    :class:`~repro.core.rrs_predictor.CellHistory` objects; a cell with
    at least 4 samples gets its whole history appended to the flat
    ``times``/``values`` buffers and its length to ``lengths``. Returns
    the cell -> window index map :func:`trigger_reports` takes.
    """
    row_of: dict = {}
    for cell in cells:
        history = histories.get(cell)
        if history is not None and len(history.times_s) >= 4:
            row_of[cell] = len(lengths)
            lengths.append(len(history.times_s))
            times.extend(history.times_s)
            values.extend(history.values_dbm)
    return row_of


def forecast_reports(
    configs: list,
    actives: list[list],
    row_ofs: list[dict],
    times: array,
    values: array,
    lengths: list,
    smoother_window: int,
    horizon_s: float,
) -> list[list[tuple]]:
    """:func:`forecast_windows` then :func:`trigger_reports` over windows
    collected by :func:`add_windows`, one entry of ``actives``/``row_ofs``
    per step or session."""
    forecasts = forecast_windows(
        np.frombuffer(times),
        np.frombuffer(values),
        np.array(lengths, dtype=np.intp),
        smoother_window,
        horizon_s,
    )
    return trigger_reports(
        configs, actives, row_ofs, forecasts, horizon_s / FORECAST_STEPS
    )


def forecast_histories(
    configs: list,
    plans: list[tuple],
    histories: list[dict],
    smoother_window: int,
    horizon_s: float,
) -> list[list[tuple]]:
    """:func:`forecast_reports` for sessions holding live cell histories:
    ``plans[j]`` is session j's :func:`gate` output and ``histories[j]``
    its cell -> ``CellHistory`` map."""
    times, values, lengths = array("d"), array("d"), []
    row_ofs = [
        add_windows(cells, cell_histories, times, values, lengths)
        for (_active, cells), cell_histories in zip(plans, histories)
    ]
    return forecast_reports(
        configs,
        [active for active, _cells in plans],
        row_ofs,
        times,
        values,
        lengths,
        smoother_window,
        horizon_s,
    )
