"""Per-cell RRS history and prediction (§7.2's "RRS Predictor").

For every cell the UE hears, keep the last history-window of RSRP
samples, smooth them with the triangular kernel, fit a linear
regression over time, and extrapolate the next prediction window. This
is deliberately light-weight — the paper picks linear regression so the
system can run on energy-constrained UEs in real time.

:meth:`RRSPredictor.predict` is the scalar oracle: it smooths and fits
one cell's history per call. The offline replay and the server keep
their histories here too, but fit every needed cell of a block of steps
or a micro-batch at once with :func:`repro.core.forecast_kernel.fit`,
which returns the same floats; the defaults here (stale eviction, slope
shrinkage) are the kernel's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.forecast_kernel import SLOPE_SHRINKAGE, STALE_AFTER_S
from repro.core.smoothing import TriangularKernelSmoother


@dataclass
class CellHistory:
    """Rolling RSRP history for one cell."""

    window: int
    times_s: deque = field(default_factory=deque)
    values_dbm: deque = field(default_factory=deque)

    def push(self, time_s: float, rsrp_dbm: float) -> None:
        self.times_s.append(time_s)
        self.values_dbm.append(rsrp_dbm)
        while len(self.times_s) > self.window:
            self.times_s.popleft()
            self.values_dbm.popleft()

    @property
    def full(self) -> bool:
        return len(self.times_s) >= self.window

    @property
    def last_time_s(self) -> float:
        return self.times_s[-1] if self.times_s else float("-inf")


class RRSPredictor:
    """Predicts near-future RSRP per cell from smoothed history."""

    def __init__(
        self,
        history_window_ticks: int = 20,
        smoother_window: int = 8,
        stale_after_s: float = STALE_AFTER_S,
        slope_shrinkage: float = SLOPE_SHRINKAGE,
    ):
        if history_window_ticks < 4:
            raise ValueError("history window too short for a regression")
        if not 0.0 < slope_shrinkage <= 1.0:
            raise ValueError("slope shrinkage must lie in (0, 1]")
        self._window = history_window_ticks
        self._smoother = TriangularKernelSmoother(smoother_window)
        self._stale_after_s = stale_after_s
        self._slope_shrinkage = slope_shrinkage
        self._cells: dict[object, CellHistory] = {}

    def observe(self, time_s: float, rsrp_by_cell: dict[object, float]) -> None:
        """Fold one tick of per-cell RSRP into the histories."""
        for cell, rsrp in rsrp_by_cell.items():
            history = self._cells.get(cell)
            if history is None:
                history = CellHistory(self._window)
                self._cells[cell] = history
            history.push(time_s, rsrp)
        # Forget cells we have not heard recently.
        stale = [
            cell
            for cell, history in self._cells.items()
            if time_s - history.last_time_s > self._stale_after_s
        ]
        for cell in stale:
            del self._cells[cell]

    def known_cells(self) -> list[object]:
        return list(self._cells)

    def predict(
        self, cell: object, horizon_s: float, steps: int = 4
    ) -> np.ndarray | None:
        """Predicted smoothed RSRP at ``steps`` evenly spaced times over
        the next ``horizon_s`` seconds; None if history is insufficient.
        """
        history = self._cells.get(cell)
        if history is None or len(history.values_dbm) < 4:
            return None
        times = np.array(history.times_s, dtype=float)
        values = self._smoother.smooth_series(np.array(history.values_dbm, dtype=float))
        t0 = times[-1]
        t_rel = times - t0
        # Closed-form OLS on (t_rel, values).
        n = t_rel.size
        sum_t = t_rel.sum()
        sum_tt = float(np.dot(t_rel, t_rel))
        sum_v = values.sum()
        sum_tv = float(np.dot(t_rel, values))
        denom = n * sum_tt - sum_t * sum_t
        if abs(denom) < 1e-12:
            slope = 0.0
            intercept = float(values.mean())
        else:
            slope = (n * sum_tv - sum_t * sum_v) / denom
            intercept = (sum_v - slope * sum_t) / n
        # Shrink the extrapolation slope: the OLS slope over a short
        # noisy window overshoots, and a 1-second extrapolation amplifies
        # that into false trigger forecasts (James-Stein-style damping).
        slope *= self._slope_shrinkage
        future = np.linspace(horizon_s / steps, horizon_s, steps)
        return intercept + slope * future

    def reset(self) -> None:
        """Drop all per-cell history (start of a new, unrelated log).

        The streaming evaluator replays logs back to back with
        log-local clocks; without an explicit reset the first ticks of
        a log would extrapolate from the previous log's cells (the
        stale-eviction clock restarts too, so it never fires).
        """
        self._cells.clear()
