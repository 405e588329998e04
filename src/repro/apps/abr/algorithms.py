"""The ABR algorithms the paper evaluates (§7.4).

* rate-based (RB): pick the highest level sustainable at the predicted
  throughput;
* fastMPC / robustMPC (Yin et al.): model-predictive control over a
  short look-ahead horizon maximising a bitrate/rebuffering/smoothness
  QoE; robustMPC discounts the prediction by its recent maximum error;
* FESTIVE (Jiang et al.): harmonic-mean bandwidth estimate, gradual
  (one-level) switching with an up-switch stability counter.

All algorithms receive the throughput prediction from outside — that is
the seam where the paper splices Prognos in.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Protocol

import numpy as np


@lru_cache(maxsize=32)
def _plan_matrix(n_levels: int, horizon: int) -> np.ndarray:
    """All ``n_levels ** horizon`` bitrate plans as an int matrix.

    Rows follow ``itertools.product(range(n_levels), repeat=horizon)``
    order, so a first-maximum ``argmax`` over per-plan scores picks the
    same plan the scalar enumeration would. Built once per ladder shape
    and cached — the MPC family re-scores it every chunk.
    """
    grid = np.indices((n_levels,) * horizon)
    matrix = grid.reshape(horizon, -1).T
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=64)
def _group_matrices(
    ladder: tuple, chunk_s: float, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group-shared MPC matrices for one (ladder, chunk) shape.

    Pure functions of the key, memoised because the serving engine
    re-scores the same ladder every chunk of every session.
    """
    plans = _plan_matrix(len(ladder), horizon)
    levels = np.asarray(ladder, dtype=float)
    base = levels[plans] * chunk_s
    quality = levels[plans] / levels[-1] * 10.0
    base.setflags(write=False)
    quality.setflags(write=False)
    return plans, base, quality


class AbrAlgorithm(Protocol):
    """Selects the next chunk's quality level."""

    name: str

    def select(
        self,
        levels_mbps: list[float],
        buffer_s: float,
        last_level: int,
        predicted_mbps: float,
        chunk_s: float,
    ) -> int: ...

    def observe_error(self, predicted_mbps: float, actual_mbps: float) -> None: ...


class RateBased:
    """Highest level whose bitrate fits under the predicted throughput."""

    def __init__(self, safety: float = 0.9):
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety factor must lie in (0, 1]")
        self.name = "RB"
        self._safety = safety

    def select(
        self,
        levels_mbps: list[float],
        buffer_s: float,
        last_level: int,
        predicted_mbps: float,
        chunk_s: float,
    ) -> int:
        budget = predicted_mbps * self._safety
        level = 0
        for i, rate in enumerate(levels_mbps):
            if rate <= budget:
                level = i
        return level

    def observe_error(self, predicted_mbps: float, actual_mbps: float) -> None:
        pass


class _MpcBase:
    """Shared look-ahead optimisation for the MPC family."""

    HORIZON = 3
    REBUF_PENALTY = 8.0
    SMOOTH_PENALTY = 0.5

    def __init__(self) -> None:
        self._recent_errors: list[float] = []

    def _discounted(self, predicted_mbps: float) -> float:
        return predicted_mbps

    def plan_throughput(self, predicted_mbps: float) -> float:
        """The rate every plan is scored at: the discounted prediction,
        floored at 0.1 Mbps."""
        return max(self._discounted(predicted_mbps), 0.1)

    def select(
        self,
        levels_mbps: list[float],
        buffer_s: float,
        last_level: int,
        predicted_mbps: float,
        chunk_s: float,
    ) -> int:
        throughput = self.plan_throughput(predicted_mbps)
        plans = _plan_matrix(len(levels_mbps), self.HORIZON)
        levels = np.asarray(levels_mbps, dtype=float)
        # Operation order mirrors the scalar reference exactly, so the
        # per-plan values are bitwise identical and the first-maximum
        # argmax picks the same plan on ties.
        download_s = levels[plans] * chunk_s / throughput
        quality = levels[plans] / levels[-1] * 10.0
        value = np.zeros(plans.shape[0])
        buf = np.full(plans.shape[0], float(buffer_s))
        prev = np.full(plans.shape[0], last_level)
        # Horizon steps stay a loop (HORIZON is 3); plans vectorize.
        for step in range(self.HORIZON):
            d = download_s[:, step]
            stall = np.maximum(d - buf, 0.0)
            buf = np.maximum(buf - d, 0.0) + chunk_s
            value += (
                quality[:, step]
                - self.REBUF_PENALTY * stall
                - self.SMOOTH_PENALTY * np.abs(plans[:, step] - prev)
            )
            prev = plans[:, step]
        return int(plans[int(np.argmax(value)), 0])

    def select_reference(
        self,
        levels_mbps: list[float],
        buffer_s: float,
        last_level: int,
        predicted_mbps: float,
        chunk_s: float,
    ) -> int:
        """Scalar plan enumeration — ground truth for ``select``."""
        throughput = max(self._discounted(predicted_mbps), 0.1)
        best_value = float("-inf")
        best_first = last_level
        for plan in itertools.product(range(len(levels_mbps)), repeat=self.HORIZON):
            value = 0.0
            buf = buffer_s
            prev = last_level
            for level in plan:
                download_s = levels_mbps[level] * chunk_s / throughput
                stall = max(download_s - buf, 0.0)
                buf = max(buf - download_s, 0.0) + chunk_s
                value += (
                    levels_mbps[level] / levels_mbps[-1] * 10.0
                    - self.REBUF_PENALTY * stall
                    - self.SMOOTH_PENALTY * abs(level - prev)
                )
                prev = level
            if value > best_value:
                best_value = value
                best_first = plan[0]
        return best_first

    def observe_error(self, predicted_mbps: float, actual_mbps: float) -> None:
        if actual_mbps <= 0:
            return
        error = abs(predicted_mbps - actual_mbps) / actual_mbps
        self._recent_errors.append(error)
        del self._recent_errors[:-5]


class FastMpc(_MpcBase):
    """MPC with the raw throughput prediction."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "fastMPC"


class RobustMpc(_MpcBase):
    """MPC discounting the prediction by its recent maximum error."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "robustMPC"

    def _discounted(self, predicted_mbps: float) -> float:
        if not self._recent_errors:
            return predicted_mbps
        return predicted_mbps / (1.0 + max(self._recent_errors))


def mpc_select_many(
    entries: list[tuple["_MpcBase", list[float], float, int, float, float]],
) -> list[int]:
    """Batched :meth:`_MpcBase.select` over many independent rows.

    ``entries`` rows are ``(algo, levels_mbps, buffer_s, last_level,
    throughput_mbps, chunk_s)``, where ``throughput_mbps`` is
    ``algo.plan_throughput(predicted_mbps)`` taken when the row was
    made: the discount reads the algo's recent-error state, which a
    later row of the same session may already have advanced. Rows
    sharing a ladder shape and chunk duration are scored against one
    shared plan/quality matrix; the per-plan value accumulation
    broadcasts over rows with the exact per-element operation order of
    :meth:`_MpcBase.select`, so every returned level is bitwise
    identical to the scalar call made when the row was.
    """
    results = [0] * len(entries)
    groups: dict[tuple, list[tuple[int, float, int, float]]] = {}
    for idx, (algo, levels_mbps, buffer_s, last_level, rate, chunk_s) in enumerate(
        entries
    ):
        if not isinstance(algo, _MpcBase):
            raise TypeError(f"mpc_select_many needs MPC-family algos, got {algo!r}")
        key = (
            tuple(levels_mbps),
            float(chunk_s),
            algo.HORIZON,
            algo.REBUF_PENALTY,
            algo.SMOOTH_PENALTY,
        )
        groups.setdefault(key, []).append((idx, buffer_s, last_level, rate))
    for (ladder, chunk_s, horizon, rebuf, smooth), members in groups.items():
        # ``levels[plans] * chunk_s / throughput`` associates left, so
        # the numerator is shared across the group and only the final
        # divide is per-session — bitwise identical to the scalar path.
        plans, base, quality = _group_matrices(ladder, chunk_s, horizon)
        throughput = np.array([rate for _, _, _, rate in members])
        download_s = base[None, :, :] / throughput[:, None, None]
        n_plans = plans.shape[0]
        value = np.zeros((len(members), n_plans))
        buf = np.empty((len(members), n_plans))
        buf[...] = np.array([float(b) for _, b, _, _ in members])[:, None]
        # Step 0 smoothness depends on each session's last level; later
        # steps compare consecutive plan columns, shared group-wide.
        # Scratch-buffer ufuncs below keep the elementwise op sequence
        # of the expression form (multiply commutes bitwise in IEEE
        # 754), trading temporaries for two reused buffers.
        prev: np.ndarray = np.array([last for _, _, last, _ in members])[:, None]
        stall = np.empty_like(buf)
        for step in range(horizon):
            d = download_s[:, :, step]
            np.subtract(d, buf, out=stall)
            np.maximum(stall, 0.0, out=stall)
            np.subtract(buf, d, out=buf)
            np.maximum(buf, 0.0, out=buf)
            np.add(buf, chunk_s, out=buf)
            np.multiply(stall, rebuf, out=stall)
            np.subtract(quality[:, step], stall, out=stall)
            np.subtract(
                stall, smooth * np.abs(plans[:, step] - prev), out=stall
            )
            np.add(value, stall, out=value)
            prev = plans[:, step]
        winners = np.argmax(value, axis=1)
        for row, (idx, _, _, _) in enumerate(members):
            results[idx] = int(plans[int(winners[row]), 0])
    return results


class Festive:
    """FESTIVE: gradual switching with an up-switch stability counter."""

    def __init__(self, safety: float = 0.85, up_patience: int = 2):
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety factor must lie in (0, 1]")
        if up_patience < 1:
            raise ValueError("up patience must be at least 1")
        self.name = "FESTIVE"
        self._safety = safety
        self._up_patience = up_patience
        self._up_votes = 0

    def select(
        self,
        levels_mbps: list[float],
        buffer_s: float,
        last_level: int,
        predicted_mbps: float,
        chunk_s: float,
    ) -> int:
        budget = predicted_mbps * self._safety
        target = 0
        for i, rate in enumerate(levels_mbps):
            if rate <= budget:
                target = i
        if target > last_level:
            self._up_votes += 1
            if self._up_votes >= self._up_patience:
                self._up_votes = 0
                return last_level + 1  # gradual up-switch
            return last_level
        self._up_votes = 0
        if target < last_level:
            return last_level - 1  # gradual down-switch
        return last_level

    def observe_error(self, predicted_mbps: float, actual_mbps: float) -> None:
        pass
