"""Log records emitted by the drive simulator.

These mirror the information content of the paper's measurement stack:
XCAL's RRC/PHY logs (RRS values, measurement reports, handover commands
with stage timings) plus 5G Tracker's application-level annotations
(geolocation, radio technology, band). Downstream consumers — the §4-§6
analyses and Prognos — only ever see these records, never simulator
internals, enforcing the same information boundary the paper had.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.radio.rrs import RRSSample
from repro.rrc.signaling import SignalingTally
from repro.rrc.taxonomy import HandoverType
from repro.ue.state import RadioMode


@dataclass(frozen=True, slots=True)
class NeighbourObservation:
    """Compact per-neighbour measurement (strongest neighbours only).

    ``in_a3_scope`` mirrors the measurement-object configuration the UE
    received: True when this neighbour belongs to the serving node and
    is therefore a candidate for intra-node A3 events.
    """

    gci: int
    pci: int
    rrs: RRSSample
    in_a3_scope: bool = False


@dataclass(frozen=True, slots=True)
class TickRecord:
    """One 20 Hz logging tick."""

    time_s: float
    arc_m: float
    x_m: float
    y_m: float
    speed_mps: float
    mode: RadioMode
    lte_serving_gci: int | None
    lte_serving_pci: int | None
    nr_serving_gci: int | None
    nr_serving_pci: int | None
    nr_band_class: BandClass | None
    lte_rrs: RRSSample | None
    nr_rrs: RRSSample | None
    lte_neighbours: tuple[NeighbourObservation, ...]
    nr_neighbours: tuple[NeighbourObservation, ...]
    lte_capacity_mbps: float
    nr_capacity_mbps: float
    total_capacity_mbps: float
    lte_interrupted: bool
    nr_interrupted: bool


@dataclass(frozen=True, slots=True)
class ReportRecord:
    """A measurement report as seen on the RRC layer."""

    time_s: float
    label: str
    serving_gci: int | None
    neighbour_gci: int | None
    serving_rrs: RRSSample | None
    neighbour_rrs: RRSSample | None


@dataclass(frozen=True, slots=True)
class HandoverRecord:
    """A completed handover with its full timing decomposition."""

    ho_type: HandoverType
    decision_time_s: float
    exec_start_s: float
    complete_s: float
    t1_ms: float
    t2_ms: float
    mode_before: RadioMode
    mode_after: RadioMode
    source_gci: int | None
    target_gci: int | None
    source_pci: int | None
    target_pci: int | None
    band_class: BandClass | None
    arc_m: float
    colocated: bool
    same_pci_legs: bool | None
    trigger_labels: tuple[str, ...]
    signaling: SignalingTally
    energy_j: float

    @property
    def total_ms(self) -> float:
        return self.t1_ms + self.t2_ms

    @property
    def is_4g(self) -> bool:
        return self.ho_type in (HandoverType.LTEH, HandoverType.MNBH)

    @property
    def is_5g(self) -> bool:
        return not self.is_4g


class DriveLog:
    """Everything one simulated drive produced."""

    def __init__(
        self,
        carrier: str,
        bearer: BearerMode | None,
        ticks: list[TickRecord],
        reports: list[ReportRecord],
        handovers: list[HandoverRecord],
        *,
        scenario: str = "",
    ):
        self.carrier = carrier
        self.bearer = bearer
        self.ticks = ticks
        self.reports = reports
        self.handovers = handovers
        self.scenario = scenario

    # ------------------------------------------------------------------
    # Aggregates used across the analyses.
    # ------------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        if not self.ticks:
            return 0.0
        return self.ticks[-1].time_s - self.ticks[0].time_s

    @property
    def distance_km(self) -> float:
        if not self.ticks:
            return 0.0
        return (self.ticks[-1].arc_m - self.ticks[0].arc_m) / 1000.0

    @property
    def tick_interval_s(self) -> float:
        if len(self.ticks) < 2:
            return 0.0
        return self.ticks[1].time_s - self.ticks[0].time_s

    def handovers_of(self, *types: HandoverType) -> list[HandoverRecord]:
        wanted = set(types)
        return [h for h in self.handovers if h.ho_type in wanted]

    def count_by_type(self) -> dict[HandoverType, int]:
        counts: dict[HandoverType, int] = {}
        for h in self.handovers:
            counts[h.ho_type] = counts.get(h.ho_type, 0) + 1
        return counts

    def unique_cells_seen(self) -> set[int]:
        """GCIs of every cell that ever served the UE."""
        seen: set[int] = set()
        for tick in self.ticks:
            if tick.lte_serving_gci is not None:
                seen.add(tick.lte_serving_gci)
            if tick.nr_serving_gci is not None:
                seen.add(tick.nr_serving_gci)
        return seen

    def capacity_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, total capacity in Mbps) arrays for trace building.

        Memoized: the analyses, trace builders, and benches ask for the
        same arrays repeatedly, and rebuilding them per call dominated
        their runtime. The arrays are returned read-only so every
        consumer can safely share them.
        """
        cached = self.__dict__.get("_capacity_series")
        if cached is None:
            times = np.array([t.time_s for t in self.ticks])
            caps = np.array([t.total_capacity_mbps for t in self.ticks])
            times.setflags(write=False)
            caps.setflags(write=False)
            cached = (times, caps)
            self.__dict__["_capacity_series"] = cached
        return cached

    def serving_pci_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(LTE, NR) serving-PCI arrays per tick, -1 where detached.

        Memoized and read-only, like :meth:`capacity_series`; lets the
        colocation analyses count attachment conditions with array
        comparisons instead of per-tick attribute scans.
        """
        cached = self.__dict__.get("_serving_pci_series")
        if cached is None:
            lte = np.array(
                [-1 if t.lte_serving_pci is None else t.lte_serving_pci for t in self.ticks],
                dtype=np.int64,
            )
            nr = np.array(
                [-1 if t.nr_serving_pci is None else t.nr_serving_pci for t in self.ticks],
                dtype=np.int64,
            )
            lte.setflags(write=False)
            nr.setflags(write=False)
            cached = (lte, nr)
            self.__dict__["_serving_pci_series"] = cached
        return cached

    def columnar(self):
        """The packed struct-of-arrays form of this log, memoized.

        Logs materialised from a :class:`ColumnarLog` (cache hits,
        corpus slices) carry their backing arrays and return them
        without repacking; fresh simulator output packs once on first
        use. The packed arrays feed the corpus store, the worker
        fan-out, and the content digests, so sharing one instance
        matters.
        """
        cached = self.__dict__.get("_columnar")
        if cached is None:
            from repro.simulate.columnar import ColumnarLog

            cached = ColumnarLog.from_drive_log(self)
            self.__dict__["_columnar"] = cached
        return cached

    def total_energy_j(self) -> float:
        return sum(h.energy_j for h in self.handovers)

    def total_signaling(self) -> SignalingTally:
        total = SignalingTally()
        for h in self.handovers:
            total.add(h.signaling)
        return total

    def time_in_mode_s(self, mode: RadioMode) -> float:
        dt = self.tick_interval_s
        return sum(dt for t in self.ticks if t.mode is mode)

    def merge(self, other: "DriveLog") -> "DriveLog":
        """Concatenate another drive (time/arc re-based after this one)."""
        if other.carrier != self.carrier:
            raise ValueError("cannot merge drives from different carriers")
        t_off = (self.ticks[-1].time_s + self.tick_interval_s) if self.ticks else 0.0
        a_off = self.ticks[-1].arc_m if self.ticks else 0.0
        import dataclasses

        ticks = self.ticks + [
            dataclasses.replace(t, time_s=t.time_s + t_off, arc_m=t.arc_m + a_off)
            for t in other.ticks
        ]
        reports = self.reports + [
            dataclasses.replace(r, time_s=r.time_s + t_off) for r in other.reports
        ]
        handovers = self.handovers + [
            dataclasses.replace(
                h,
                decision_time_s=h.decision_time_s + t_off,
                exec_start_s=h.exec_start_s + t_off,
                complete_s=h.complete_s + t_off,
                arc_m=h.arc_m + a_off,
            )
            for h in other.handovers
        ]
        return DriveLog(
            self.carrier, self.bearer, ticks, reports, handovers, scenario=self.scenario
        )
