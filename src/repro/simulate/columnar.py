"""Packed struct-of-arrays DriveLog: the corpus interchange format.

A :class:`~repro.simulate.records.DriveLog` is a list of per-tick
Python objects — ideal for the analyses, terrible for moving a corpus
around: pickling a 20 Hz log for a worker pool or hashing it for a
content key walks every object. :class:`ColumnarLog` is the same
information as flat numpy arrays (plus small tables for the handful of
handovers), the layout measurement-replay systems at this scale use so
that replay parallelises without per-record serialization.

Layout
------

* Per-tick scalar fields are one array each (``float64`` for
  time/position/capacity, small ints for enum indices, ``bool`` for
  flags). Optional integer identifiers (GCIs/PCIs) use ``-1`` as the
  ``None`` sentinel — the same convention
  :meth:`DriveLog.serving_pci_series` already exposes — and packing
  raises if a real identifier is negative, keeping the encoding
  lossless-or-error.
* Optional RRS triples are an ``(N, 3)`` array plus a presence mask.
* Variable-length per-tick neighbour lists are CSR-style: an
  ``(N + 1,)`` offsets array into flat per-neighbour arrays.
* Enums are stored as indices into name tables saved *in the file*
  (``enum_modes``/``enum_bands``/``enum_ho_types``), so decoding maps
  through names and survives enum reordering.
* Reports and handovers get the same treatment; trigger labels are a
  CSR string table and signaling tallies an ``(H, 5)`` int matrix.

Conversion is lossless both ways: ``to_drive_log`` rebuilds records
bit-identical to the originals (array ``.tolist()`` yields native
Python scalars, so ``log_to_dict`` output matches exactly), and it
pre-populates the log's memoized :meth:`capacity_series` /
:meth:`serving_pci_series` slots with read-only *views* over the packed
arrays — the analyses consume the columnar store directly, no copies.

The on-disk codec (:func:`save_columnar` / :func:`load_columnar`) is a
compressed ``.npz`` behind the same ``FORMAT_VERSION`` gate as the JSON
artifact format; :class:`~repro.simulate.cache.DriveCache` stores its
entries this way. :meth:`ColumnarLog.content_digest` hashes the packed
arrays — the corpus content key the derived-dataset cache uses instead
of pickling tick tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import hashlib

import numpy as np

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.radio.rrs import RRSSample
from repro.rrc.signaling import SignalingTally
from repro.rrc.taxonomy import HandoverType
from repro.simulate.records import (
    DriveLog,
    HandoverRecord,
    NeighbourObservation,
    ReportRecord,
    TickRecord,
)
from repro.simulate.serialization import FORMAT_VERSION
from repro.ue.state import RadioMode

#: Canonical array set (and iteration order — the digest depends on it).
ARRAY_KEYS: tuple[str, ...] = (
    "enum_modes",
    "enum_bands",
    "enum_ho_types",
    "tick_time_s",
    "tick_arc_m",
    "tick_x_m",
    "tick_y_m",
    "tick_speed_mps",
    "tick_mode",
    "tick_lte_gci",
    "tick_lte_pci",
    "tick_nr_gci",
    "tick_nr_pci",
    "tick_nr_band",
    "tick_lte_rrs",
    "tick_lte_rrs_mask",
    "tick_nr_rrs",
    "tick_nr_rrs_mask",
    "tick_lte_capacity_mbps",
    "tick_nr_capacity_mbps",
    "tick_total_capacity_mbps",
    "tick_lte_interrupted",
    "tick_nr_interrupted",
    "lte_nb_offsets",
    "lte_nb_gci",
    "lte_nb_pci",
    "lte_nb_rrs",
    "lte_nb_scope",
    "nr_nb_offsets",
    "nr_nb_gci",
    "nr_nb_pci",
    "nr_nb_rrs",
    "nr_nb_scope",
    "report_time_s",
    "report_label",
    "report_serving_gci",
    "report_neighbour_gci",
    "report_serving_rrs",
    "report_serving_rrs_mask",
    "report_neighbour_rrs",
    "report_neighbour_rrs_mask",
    "ho_type",
    "ho_decision_s",
    "ho_exec_start_s",
    "ho_complete_s",
    "ho_t1_ms",
    "ho_t2_ms",
    "ho_mode_before",
    "ho_mode_after",
    "ho_source_gci",
    "ho_target_gci",
    "ho_source_pci",
    "ho_target_pci",
    "ho_band",
    "ho_arc_m",
    "ho_colocated",
    "ho_same_pci",
    "ho_trigger_offsets",
    "ho_trigger_labels",
    "ho_signaling",
    "ho_energy_j",
)


def _opt_ints(values: Sequence[int | None]) -> np.ndarray:
    """Pack optional non-negative identifiers with -1 as the None slot."""
    provided = [v for v in values if v is not None]
    if provided and min(provided) < 0:
        raise ValueError("negative identifier collides with the -1 None sentinel")
    return np.fromiter(
        (-1 if v is None else v for v in values), dtype=np.int64, count=len(values)
    )


def _rrs_rows(samples: Sequence[RRSSample | None]) -> tuple[np.ndarray, np.ndarray]:
    mask = np.fromiter(
        (s is not None for s in samples), dtype=bool, count=len(samples)
    )
    rows = np.array(
        [
            (s.rsrp_dbm, s.rsrq_db, s.sinr_db) if s is not None else (0.0, 0.0, 0.0)
            for s in samples
        ],
        dtype=np.float64,
    ).reshape(len(samples), 3)
    return rows, mask


def _strings(values: Sequence[str]) -> np.ndarray:
    return np.array(list(values), dtype=np.str_).reshape(len(values))


def _csr(counts: Sequence[int]) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


def _pack_neighbours(
    per_tick: Sequence[tuple[NeighbourObservation, ...]], prefix: str
) -> dict[str, np.ndarray]:
    flat = [obs for neighbours in per_tick for obs in neighbours]
    rrs = np.array(
        [(o.rrs.rsrp_dbm, o.rrs.rsrq_db, o.rrs.sinr_db) for o in flat],
        dtype=np.float64,
    ).reshape(len(flat), 3)
    return {
        f"{prefix}_offsets": _csr([len(n) for n in per_tick]),
        f"{prefix}_gci": np.fromiter(
            (o.gci for o in flat), dtype=np.int64, count=len(flat)
        ),
        f"{prefix}_pci": np.fromiter(
            (o.pci for o in flat), dtype=np.int64, count=len(flat)
        ),
        f"{prefix}_rrs": rrs,
        f"{prefix}_scope": np.fromiter(
            (o.in_a3_scope for o in flat), dtype=bool, count=len(flat)
        ),
    }


def _readonly_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


@dataclass
class ColumnarLog:
    """One drive, packed into flat arrays (see the module docstring)."""

    carrier: str
    bearer: BearerMode | None
    scenario: str
    arrays: dict[str, np.ndarray]

    @property
    def n_ticks(self) -> int:
        return len(self.arrays["tick_time_s"])

    @property
    def n_reports(self) -> int:
        return len(self.arrays["report_time_s"])

    @property
    def n_handovers(self) -> int:
        return len(self.arrays["ho_type"])

    @property
    def nbytes(self) -> int:
        """Total packed payload size in bytes."""
        return sum(a.nbytes for a in self.arrays.values())

    def handover_types(self) -> list[HandoverType]:
        """Each handover's type, decoded through the stored name table."""
        table = [HandoverType[name] for name in self.arrays["enum_ho_types"].tolist()]
        return [table[i] for i in self.arrays["ho_type"].tolist()]

    # ------------------------------------------------------------------
    # DriveLog <-> ColumnarLog
    # ------------------------------------------------------------------

    @classmethod
    def from_drive_log(cls, log: DriveLog) -> "ColumnarLog":
        """Pack ``log`` losslessly (raises on unencodable identifiers)."""
        ticks, reports, handovers = log.ticks, log.reports, log.handovers
        mode_index = {m: i for i, m in enumerate(RadioMode)}
        band_index = {b: i for i, b in enumerate(BandClass)}
        ho_index = {h: i for i, h in enumerate(HandoverType)}

        lte_rrs, lte_rrs_mask = _rrs_rows([t.lte_rrs for t in ticks])
        nr_rrs, nr_rrs_mask = _rrs_rows([t.nr_rrs for t in ticks])
        rep_srv_rrs, rep_srv_mask = _rrs_rows([r.serving_rrs for r in reports])
        rep_nb_rrs, rep_nb_mask = _rrs_rows([r.neighbour_rrs for r in reports])

        arrays: dict[str, np.ndarray] = {
            "enum_modes": _strings([m.name for m in RadioMode]),
            "enum_bands": _strings([b.name for b in BandClass]),
            "enum_ho_types": _strings([h.name for h in HandoverType]),
            "tick_time_s": np.array([t.time_s for t in ticks], dtype=np.float64),
            "tick_arc_m": np.array([t.arc_m for t in ticks], dtype=np.float64),
            "tick_x_m": np.array([t.x_m for t in ticks], dtype=np.float64),
            "tick_y_m": np.array([t.y_m for t in ticks], dtype=np.float64),
            "tick_speed_mps": np.array(
                [t.speed_mps for t in ticks], dtype=np.float64
            ),
            "tick_mode": np.fromiter(
                (mode_index[t.mode] for t in ticks), dtype=np.int8, count=len(ticks)
            ),
            "tick_lte_gci": _opt_ints([t.lte_serving_gci for t in ticks]),
            "tick_lte_pci": _opt_ints([t.lte_serving_pci for t in ticks]),
            "tick_nr_gci": _opt_ints([t.nr_serving_gci for t in ticks]),
            "tick_nr_pci": _opt_ints([t.nr_serving_pci for t in ticks]),
            "tick_nr_band": np.fromiter(
                (
                    -1 if t.nr_band_class is None else band_index[t.nr_band_class]
                    for t in ticks
                ),
                dtype=np.int8,
                count=len(ticks),
            ),
            "tick_lte_rrs": lte_rrs,
            "tick_lte_rrs_mask": lte_rrs_mask,
            "tick_nr_rrs": nr_rrs,
            "tick_nr_rrs_mask": nr_rrs_mask,
            "tick_lte_capacity_mbps": np.array(
                [t.lte_capacity_mbps for t in ticks], dtype=np.float64
            ),
            "tick_nr_capacity_mbps": np.array(
                [t.nr_capacity_mbps for t in ticks], dtype=np.float64
            ),
            "tick_total_capacity_mbps": np.array(
                [t.total_capacity_mbps for t in ticks], dtype=np.float64
            ),
            "tick_lte_interrupted": np.fromiter(
                (t.lte_interrupted for t in ticks), dtype=bool, count=len(ticks)
            ),
            "tick_nr_interrupted": np.fromiter(
                (t.nr_interrupted for t in ticks), dtype=bool, count=len(ticks)
            ),
            **_pack_neighbours([t.lte_neighbours for t in ticks], "lte_nb"),
            **_pack_neighbours([t.nr_neighbours for t in ticks], "nr_nb"),
            "report_time_s": np.array(
                [r.time_s for r in reports], dtype=np.float64
            ),
            "report_label": _strings([r.label for r in reports]),
            "report_serving_gci": _opt_ints([r.serving_gci for r in reports]),
            "report_neighbour_gci": _opt_ints([r.neighbour_gci for r in reports]),
            "report_serving_rrs": rep_srv_rrs,
            "report_serving_rrs_mask": rep_srv_mask,
            "report_neighbour_rrs": rep_nb_rrs,
            "report_neighbour_rrs_mask": rep_nb_mask,
            "ho_type": np.fromiter(
                (ho_index[h.ho_type] for h in handovers),
                dtype=np.int8,
                count=len(handovers),
            ),
            "ho_decision_s": np.array(
                [h.decision_time_s for h in handovers], dtype=np.float64
            ),
            "ho_exec_start_s": np.array(
                [h.exec_start_s for h in handovers], dtype=np.float64
            ),
            "ho_complete_s": np.array(
                [h.complete_s for h in handovers], dtype=np.float64
            ),
            "ho_t1_ms": np.array([h.t1_ms for h in handovers], dtype=np.float64),
            "ho_t2_ms": np.array([h.t2_ms for h in handovers], dtype=np.float64),
            "ho_mode_before": np.fromiter(
                (mode_index[h.mode_before] for h in handovers),
                dtype=np.int8,
                count=len(handovers),
            ),
            "ho_mode_after": np.fromiter(
                (mode_index[h.mode_after] for h in handovers),
                dtype=np.int8,
                count=len(handovers),
            ),
            "ho_source_gci": _opt_ints([h.source_gci for h in handovers]),
            "ho_target_gci": _opt_ints([h.target_gci for h in handovers]),
            "ho_source_pci": _opt_ints([h.source_pci for h in handovers]),
            "ho_target_pci": _opt_ints([h.target_pci for h in handovers]),
            "ho_band": np.fromiter(
                (
                    -1 if h.band_class is None else band_index[h.band_class]
                    for h in handovers
                ),
                dtype=np.int8,
                count=len(handovers),
            ),
            "ho_arc_m": np.array([h.arc_m for h in handovers], dtype=np.float64),
            "ho_colocated": np.fromiter(
                (h.colocated for h in handovers), dtype=bool, count=len(handovers)
            ),
            "ho_same_pci": np.fromiter(
                (
                    -1 if h.same_pci_legs is None else int(h.same_pci_legs)
                    for h in handovers
                ),
                dtype=np.int8,
                count=len(handovers),
            ),
            "ho_trigger_offsets": _csr([len(h.trigger_labels) for h in handovers]),
            "ho_trigger_labels": _strings(
                [label for h in handovers for label in h.trigger_labels]
            ),
            "ho_signaling": np.array(
                [
                    (
                        h.signaling.rrc_measurement_reports,
                        h.signaling.rrc_reconfigurations,
                        h.signaling.rrc_reconfiguration_completes,
                        h.signaling.rach_procedures,
                        h.signaling.phy_ssb_measurements,
                    )
                    for h in handovers
                ],
                dtype=np.int64,
            ).reshape(len(handovers), 5),
            "ho_energy_j": np.array(
                [h.energy_j for h in handovers], dtype=np.float64
            ),
        }
        return cls(log.carrier, log.bearer, log.scenario, arrays)

    def to_drive_log(self) -> DriveLog:
        """Rebuild the object-graph log, bit-identical in every field.

        The returned log is *backed* by this columnar store: its
        memoized ``capacity_series`` / ``serving_pci_series`` slots are
        read-only views over the packed arrays, and ``log.columnar()``
        returns this instance without repacking.
        """
        a = self.arrays
        modes = [RadioMode[name] for name in a["enum_modes"].tolist()]
        bands = [BandClass[name] for name in a["enum_bands"].tolist()]

        def opt(values: list, i: int):
            return None if values[i] == -1 else values[i]

        def rrs_at(rows: list, mask: list, i: int) -> RRSSample | None:
            if not mask[i]:
                return None
            r = rows[i]
            return RRSSample(rsrp_dbm=r[0], rsrq_db=r[1], sinr_db=r[2])

        def neighbours(prefix: str) -> list[tuple[NeighbourObservation, ...]]:
            offsets = a[f"{prefix}_offsets"].tolist()
            gci = a[f"{prefix}_gci"].tolist()
            pci = a[f"{prefix}_pci"].tolist()
            rrs = a[f"{prefix}_rrs"].tolist()
            scope = a[f"{prefix}_scope"].tolist()
            out = []
            for lo, hi in zip(offsets, offsets[1:]):
                out.append(
                    tuple(
                        NeighbourObservation(
                            gci=gci[j],
                            pci=pci[j],
                            rrs=RRSSample(
                                rsrp_dbm=rrs[j][0],
                                rsrq_db=rrs[j][1],
                                sinr_db=rrs[j][2],
                            ),
                            in_a3_scope=scope[j],
                        )
                        for j in range(lo, hi)
                    )
                )
            return out

        time_s = a["tick_time_s"].tolist()
        arc_m = a["tick_arc_m"].tolist()
        x_m = a["tick_x_m"].tolist()
        y_m = a["tick_y_m"].tolist()
        speed = a["tick_speed_mps"].tolist()
        mode = a["tick_mode"].tolist()
        lte_gci = a["tick_lte_gci"].tolist()
        lte_pci = a["tick_lte_pci"].tolist()
        nr_gci = a["tick_nr_gci"].tolist()
        nr_pci = a["tick_nr_pci"].tolist()
        nr_band = a["tick_nr_band"].tolist()
        lte_rrs = a["tick_lte_rrs"].tolist()
        lte_rrs_mask = a["tick_lte_rrs_mask"].tolist()
        nr_rrs = a["tick_nr_rrs"].tolist()
        nr_rrs_mask = a["tick_nr_rrs_mask"].tolist()
        lte_cap = a["tick_lte_capacity_mbps"].tolist()
        nr_cap = a["tick_nr_capacity_mbps"].tolist()
        total_cap = a["tick_total_capacity_mbps"].tolist()
        lte_int = a["tick_lte_interrupted"].tolist()
        nr_int = a["tick_nr_interrupted"].tolist()
        lte_neighbours = neighbours("lte_nb")
        nr_neighbours = neighbours("nr_nb")

        ticks = [
            TickRecord(
                time_s=time_s[i],
                arc_m=arc_m[i],
                x_m=x_m[i],
                y_m=y_m[i],
                speed_mps=speed[i],
                mode=modes[mode[i]],
                lte_serving_gci=opt(lte_gci, i),
                lte_serving_pci=opt(lte_pci, i),
                nr_serving_gci=opt(nr_gci, i),
                nr_serving_pci=opt(nr_pci, i),
                nr_band_class=None if nr_band[i] == -1 else bands[nr_band[i]],
                lte_rrs=rrs_at(lte_rrs, lte_rrs_mask, i),
                nr_rrs=rrs_at(nr_rrs, nr_rrs_mask, i),
                lte_neighbours=lte_neighbours[i],
                nr_neighbours=nr_neighbours[i],
                lte_capacity_mbps=lte_cap[i],
                nr_capacity_mbps=nr_cap[i],
                total_capacity_mbps=total_cap[i],
                lte_interrupted=lte_int[i],
                nr_interrupted=nr_int[i],
            )
            for i in range(len(time_s))
        ]

        rep_time = a["report_time_s"].tolist()
        rep_label = a["report_label"].tolist()
        rep_srv_gci = a["report_serving_gci"].tolist()
        rep_nb_gci = a["report_neighbour_gci"].tolist()
        rep_srv_rrs = a["report_serving_rrs"].tolist()
        rep_srv_mask = a["report_serving_rrs_mask"].tolist()
        rep_nb_rrs = a["report_neighbour_rrs"].tolist()
        rep_nb_mask = a["report_neighbour_rrs_mask"].tolist()
        reports = [
            ReportRecord(
                time_s=rep_time[i],
                label=rep_label[i],
                serving_gci=opt(rep_srv_gci, i),
                neighbour_gci=opt(rep_nb_gci, i),
                serving_rrs=rrs_at(rep_srv_rrs, rep_srv_mask, i),
                neighbour_rrs=rrs_at(rep_nb_rrs, rep_nb_mask, i),
            )
            for i in range(len(rep_time))
        ]

        ho_type = self.handover_types()
        decision = a["ho_decision_s"].tolist()
        exec_start = a["ho_exec_start_s"].tolist()
        complete = a["ho_complete_s"].tolist()
        t1 = a["ho_t1_ms"].tolist()
        t2 = a["ho_t2_ms"].tolist()
        mode_before = a["ho_mode_before"].tolist()
        mode_after = a["ho_mode_after"].tolist()
        src_gci = a["ho_source_gci"].tolist()
        tgt_gci = a["ho_target_gci"].tolist()
        src_pci = a["ho_source_pci"].tolist()
        tgt_pci = a["ho_target_pci"].tolist()
        ho_band = a["ho_band"].tolist()
        ho_arc = a["ho_arc_m"].tolist()
        colocated = a["ho_colocated"].tolist()
        same_pci = a["ho_same_pci"].tolist()
        trig_offsets = a["ho_trigger_offsets"].tolist()
        trig_labels = a["ho_trigger_labels"].tolist()
        signaling = a["ho_signaling"].tolist()
        energy = a["ho_energy_j"].tolist()
        handovers = [
            HandoverRecord(
                ho_type=ho_type[i],
                decision_time_s=decision[i],
                exec_start_s=exec_start[i],
                complete_s=complete[i],
                t1_ms=t1[i],
                t2_ms=t2[i],
                mode_before=modes[mode_before[i]],
                mode_after=modes[mode_after[i]],
                source_gci=opt(src_gci, i),
                target_gci=opt(tgt_gci, i),
                source_pci=opt(src_pci, i),
                target_pci=opt(tgt_pci, i),
                band_class=None if ho_band[i] == -1 else bands[ho_band[i]],
                arc_m=ho_arc[i],
                colocated=colocated[i],
                same_pci_legs=None if same_pci[i] == -1 else bool(same_pci[i]),
                trigger_labels=tuple(
                    trig_labels[trig_offsets[i] : trig_offsets[i + 1]]
                ),
                signaling=SignalingTally(*signaling[i]),
                energy_j=energy[i],
            )
            for i in range(len(ho_type))
        ]

        log = DriveLog(
            self.carrier,
            self.bearer,
            ticks,
            reports,
            handovers,
            scenario=self.scenario,
        )
        # Back the log with this store: the memoized per-log series are
        # zero-copy views, and columnar() repacks nothing.
        log.__dict__["_columnar"] = self
        log.__dict__["_capacity_series"] = (
            _readonly_view(a["tick_time_s"]),
            _readonly_view(a["tick_total_capacity_mbps"]),
        )
        log.__dict__["_serving_pci_series"] = (
            _readonly_view(a["tick_lte_pci"]),
            _readonly_view(a["tick_nr_pci"]),
        )
        return log

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------

    def content_digest(self) -> str:
        """sha256 over the packed arrays (and the scalar metadata)."""
        digest = hashlib.sha256()
        digest.update(b"columnar-log\0")
        digest.update(str(FORMAT_VERSION).encode())
        for text in (
            self.carrier,
            "" if self.bearer is None else self.bearer.name,
            self.scenario,
        ):
            digest.update(b"\0")
            digest.update(text.encode())
        for key in ARRAY_KEYS:
            array = self.arrays[key]
            digest.update(key.encode())
            digest.update(str(array.dtype).encode())
            digest.update(str(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()


def as_columnar(log) -> ColumnarLog:
    """``log`` as packed arrays, whatever it is.

    Accepts a :class:`ColumnarLog` (returned as-is — including
    memory-mapped corpus slices, which stay zero-copy), a
    :class:`~repro.simulate.corpus.DriveRef` (its slice) or a
    :class:`~repro.simulate.records.DriveLog` (its memoized
    :meth:`~repro.simulate.records.DriveLog.columnar` packing). The
    columnar analyses and the replay plan take any of them, so callers
    holding a corpus slice never materialise tick objects just to hand
    them on.
    """
    if isinstance(log, ColumnarLog):
        return log
    return log.columnar()


# ----------------------------------------------------------------------
# .npz codec
# ----------------------------------------------------------------------


def save_columnar(clog: ColumnarLog, file: str | Path | IO[bytes]) -> None:
    """Write ``clog`` as a compressed ``.npz`` archive."""
    np.savez_compressed(
        file,
        format_version=np.int64(FORMAT_VERSION),
        carrier=np.array(clog.carrier),
        bearer=np.array("" if clog.bearer is None else clog.bearer.name),
        scenario=np.array(clog.scenario),
        **clog.arrays,
    )


def load_columnar(file: str | Path | IO[bytes]) -> ColumnarLog:
    """Read an archive written by :func:`save_columnar`."""
    with np.load(file, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported drive-log format version {version!r}")
        carrier = str(archive["carrier"][()])
        bearer_name = str(archive["bearer"][()])
        bearer = BearerMode[bearer_name] if bearer_name else None
        scenario = str(archive["scenario"][()])
        arrays = {key: archive[key] for key in ARRAY_KEYS}
    return ColumnarLog(carrier, bearer, scenario, arrays)
