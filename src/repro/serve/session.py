"""Per-UE serving state: Prognos + streaming forecaster + ABR loop.

One :class:`ServingSession` holds everything the server keeps per
connected UE, with no asyncio in sight — the tests drive it directly
and the server wraps it with connection plumbing. Both server modes go
through the same state transitions:

* **sequential** — :meth:`step_sequential` runs the scalar
  :meth:`~repro.core.prognos.Prognos.step` per frame (the per-session
  baseline the bench compares against);
* **micro-batched** — :meth:`begin_tick` feeds the session's
  :class:`~repro.serve.forecast.StreamingForecaster` and gates the
  tick's configs, the engine runs the cross-session
  :func:`~repro.serve.forecast.forecast_batch`, and
  :meth:`finish_tick` runs the learner-coupled tail
  (:meth:`~repro.core.prognos.Prognos.step_with_forecast`).

The forecaster wraps the Prognos report predictor's own
:class:`~repro.core.rrs_predictor.RRSPredictor`, so a session holds one
RRS history in either mode, and :meth:`Prognos.start_log
<repro.core.prognos.Prognos.start_log>` resets it for both.

The split is exactly the offline evaluator's plan/stream split, so both
modes produce bit-identical predictions to
:func:`repro.core.evaluation.run_prognos_over_logs` on the same frames.

The ABR leg mirrors §7.4's player loop: observe the finished chunk's
throughput (feeding the robustMPC error discount and the harmonic-mean
predictor), then select the next chunk's level. :meth:`abr_entry`
performs the state advance and returns an
:func:`~repro.apps.abr.algorithms.mpc_select_many` row, so the batched
engine can score every ready session against one shared plan matrix;
sequential mode calls :meth:`~repro.apps.abr.algorithms._MpcBase.select`
on the same row.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.apps.abr.algorithms import RobustMpc
from repro.apps.abr.prediction import HarmonicMeanPredictor
from repro.core.prognos import Prognos
from repro.rrc.events import EventConfig
from repro.rrc.taxonomy import HandoverType
from repro.serve.forecast import StreamingForecaster


class ServingSession:
    """Everything the server holds for one connected UE."""

    def __init__(
        self,
        session_id: str,
        event_configs: list[EventConfig],
        *,
        standalone: bool = False,
        levels_mbps: list[float] | None = None,
        chunk_s: float = 4.0,
        batched: bool = True,
    ) -> None:
        self.session_id = session_id
        self.standalone = standalone
        self.prognos = Prognos(event_configs)
        # A fresh connection is a log boundary by definition.
        self.prognos.start_log()
        self.forecaster = (
            StreamingForecaster(event_configs, rrs=self.prognos.report_predictor.rrs)
            if batched
            else None
        )
        self.levels_mbps = [float(x) for x in levels_mbps] if levels_mbps else None
        self.chunk_s = float(chunk_s)
        self.abr = RobustMpc() if self.levels_mbps else None
        self.throughput = HarmonicMeanPredictor() if self.levels_mbps else None
        self._last_predicted: float | None = None
        self.ticks = 0

    # ------------------------------------------------------------------
    # RRC event stream (identical in both modes).
    # ------------------------------------------------------------------

    def observe_report(self, label: str, time_s: float) -> None:
        self.prognos.observe_report(label, time_s)

    def observe_command(self, ho_type: HandoverType, time_s: float) -> None:
        self.prognos.observe_command(ho_type, time_s)

    def start_log(self) -> None:
        """Log boundary: reset radio history, keep the learner."""
        self.prognos.start_log()

    # ------------------------------------------------------------------
    # Per-tick prediction.
    # ------------------------------------------------------------------

    def step_sequential(self, time_s, rsrp, serving, neighbours, scoped):
        """One scalar Prognos step (the per-session baseline path)."""
        self.ticks += 1
        return self.prognos.step(
            time_s,
            rsrp,
            serving,
            neighbours,
            standalone=self.standalone,
            scoped_neighbours=scoped,
        )

    def begin_tick(self, time_s, rsrp, serving, neighbours, scoped):
        """Batched front half: RRS observe + config gating.

        Returns the tick's gating plan, which the engine feeds to
        :func:`~repro.serve.forecast.forecast_batch` alongside every
        other ready session's.
        """
        self.forecaster.observe(time_s, rsrp)
        return self.forecaster.prepare(serving, neighbours, scoped)

    def finish_tick(self, time_s, serving, predicted):
        """Batched back half: the learner-coupled prediction tail."""
        self.ticks += 1
        return self.prognos.step_with_forecast(
            time_s, serving, predicted, standalone=self.standalone
        )

    # ------------------------------------------------------------------
    # ABR leg.
    # ------------------------------------------------------------------

    def abr_entry(
        self, observed_mbps: float, buffer_s: float, last_level: int
    ) -> tuple | None:
        """Advance the throughput/error state; return a select row.

        The row is ``(algo, levels, buffer_s, last_level, predicted,
        chunk_s)`` — sequential mode calls ``algo.select(*row[1:])`` on
        it, the batched engine collects rows across sessions into one
        :func:`~repro.apps.abr.algorithms.mpc_select_many` call. The
        state advance (error feedback before the rate observation,
        prediction recorded for the next chunk's error) is the player
        loop order, identical either way.
        """
        if self.abr is None:
            return None
        if observed_mbps > 0:
            if self._last_predicted is not None:
                self.abr.observe_error(self._last_predicted, observed_mbps)
            self.throughput.observe(observed_mbps)
        predicted = self.throughput.predict_mbps()
        self._last_predicted = predicted
        return (
            self.abr,
            self.levels_mbps,
            buffer_s,
            int(last_level),
            predicted,
            self.chunk_s,
        )


class SessionState:
    """The part of a session that outlives its TCP connection.

    Everything resumption needs rides here: the resume token handed out
    in the welcome, both sequence counters, a bounded replay journal of
    fully-framed prediction bytes (so a replayed tail is bit-identical
    to the original sends), the ordered inbox of accepted-but-unserved
    frames, and the accounting the bye frame reports. The live
    ``_Connection`` is deliberately *not* part of the state — it is the
    one field dropped on pickling, which is how a shard exports a
    detached session over the control channel for its own resume, or
    its successor in the same slot, to adopt.
    """

    __slots__ = (
        "session_id",
        "session",
        "token",
        "policy",
        "replay_limit",
        "out_seq",
        "in_seq",
        "journal",
        "overflow",
        "dropped",
        "lost",
        "ticks_in",
        "resumes",
        "inbox",
        "pending",
        "finished",
        "gone",
        "detached_at",
        "conn",
    )

    def __init__(
        self,
        session_id: str,
        session: ServingSession | None,
        *,
        token: str,
        policy: str = "drop",
        replay_limit: int = 0,
    ) -> None:
        self.session_id = session_id
        self.session = session
        self.token = token
        self.policy = policy
        self.replay_limit = int(replay_limit)
        #: Last prediction sequence sent / last client sequence applied.
        self.out_seq = 0
        self.in_seq = 0
        self.journal: deque[bytes] = deque()
        #: Predictions aged out of the journal (no longer replayable).
        self.overflow = 0
        self.dropped = 0
        self.lost = 0
        self.ticks_in = 0
        self.resumes = 0
        self.inbox: deque = deque()
        #: Accepted-but-unanswered ticks (inbound backpressure unit).
        self.pending = 0
        self.finished = False
        #: Retired, replaced, or exported — the engine must skip it.
        self.gone = False
        self.detached_at: float | None = None
        self.conn = None

    def __getstate__(self) -> dict:
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["conn"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def record(self, payload: bytes) -> None:
        """Journal one framed prediction; the caller encoded it with
        sequence ``out_seq + 1``."""
        self.out_seq += 1
        if self.replay_limit <= 0:
            self.overflow += 1
            return
        if len(self.journal) >= self.replay_limit:
            self.journal.popleft()
            self.overflow += 1
        self.journal.append(payload)

    def replay_from(self, last_seq: int) -> list[bytes] | None:
        """The framed tail after ``last_seq``, oldest first.

        ``None`` when the journal has overflowed past the client's
        cursor — the tail cannot be replayed bit-identically, so the
        resume must be refused and the client restarts the drive.
        """
        start = self.out_seq - len(self.journal) + 1
        if last_seq + 1 < start:
            return None
        if last_seq >= self.out_seq:
            return []
        return list(itertools.islice(self.journal, last_seq + 1 - start, None))
