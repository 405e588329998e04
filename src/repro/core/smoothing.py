"""Triangular-kernel signal smoothing (§7.2, after Long & Sikdar).

Raw 20 Hz RRS carries small-scale fading and measurement noise that
would wreck a linear extrapolation. Prognos smooths each cell's series
with a trailing triangular kernel — weights rise linearly towards the
newest sample, so the smoother tracks trends with little lag while
averaging fading away.

:meth:`TriangularKernelSmoother.smooth_series` is the scalar oracle;
:func:`repro.core.forecast_kernel.smooth` smooths many windows at once
with stacked ``matmul`` dots and returns the same floats.
"""

from __future__ import annotations

import numpy as np


class TriangularKernelSmoother:
    """Trailing triangular-kernel smoother over a fixed window."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        # Weights for the newest `window` samples, oldest first: 1..window.
        self._weights = np.arange(1, window + 1, dtype=float)

    def smooth_last(self, values: np.ndarray) -> float:
        """Smoothed value at the end of ``values`` (uses the trailing window)."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("cannot smooth an empty series")
        tail = values[-self.window :]
        weights = self._weights[-tail.size :]
        return float(np.dot(tail, weights) / weights.sum())

    def smooth_series(self, values: np.ndarray) -> np.ndarray:
        """Smoothed series (same length; early samples use short windows)."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("cannot smooth an empty series")
        out = np.empty_like(values)
        for i in range(values.size):
            start = max(0, i + 1 - self.window)
            tail = values[start : i + 1]
            weights = self._weights[-tail.size :]
            out[i] = np.dot(tail, weights) / weights.sum()
        return out
