"""DriveLog serialization — the repository's artifact format.

The paper released its dataset as flat files; this module gives the
reproduction the same workflow: dump a :class:`DriveLog` to a compact
JSON document (optionally gzipped by file suffix) and load it back,
bit-identical in every field the analyses consume. Useful for caching
expensive simulations and for shipping generated datasets.

``FORMAT_VERSION`` gates every on-disk drive-log format — this JSON
artifact format and the shards of the
:class:`~repro.simulate.corpus.CorpusStore`, which hold the packed
arrays of :mod:`repro.simulate.columnar`. Version 2 fixed optional-enum
decoding (``is not None`` instead of truthiness, so falsy enum values
survive round-trips) and added the columnar sibling; version 3 records
each stored drive's content digest in its shard index. Files of another
version are rejected (shards of another version are skipped as stale)
rather than risk decoding differently.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

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
from repro.ue.state import RadioMode

FORMAT_VERSION = 3


def _rrs_to_list(sample: RRSSample | None) -> list[float] | None:
    if sample is None:
        return None
    return [sample.rsrp_dbm, sample.rsrq_db, sample.sinr_db]


def _rrs_from_list(values: list[float] | None) -> RRSSample | None:
    if values is None:
        return None
    return RRSSample(rsrp_dbm=values[0], rsrq_db=values[1], sinr_db=values[2])


def _neighbours_to_list(neighbours) -> list:
    return [
        [obs.gci, obs.pci, _rrs_to_list(obs.rrs), obs.in_a3_scope] for obs in neighbours
    ]


def _neighbours_from_list(payload) -> tuple[NeighbourObservation, ...]:
    return tuple(
        NeighbourObservation(
            gci=item[0], pci=item[1], rrs=_rrs_from_list(item[2]), in_a3_scope=item[3]
        )
        for item in payload
    )


def log_to_dict(log: DriveLog) -> dict:
    """Serialise a drive log to a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "carrier": log.carrier,
        "bearer": log.bearer.value if log.bearer is not None else None,
        "scenario": log.scenario,
        "ticks": [
            [
                t.time_s,
                t.arc_m,
                t.x_m,
                t.y_m,
                t.speed_mps,
                t.mode.value,
                t.lte_serving_gci,
                t.lte_serving_pci,
                t.nr_serving_gci,
                t.nr_serving_pci,
                t.nr_band_class.value if t.nr_band_class is not None else None,
                _rrs_to_list(t.lte_rrs),
                _rrs_to_list(t.nr_rrs),
                _neighbours_to_list(t.lte_neighbours),
                _neighbours_to_list(t.nr_neighbours),
                t.lte_capacity_mbps,
                t.nr_capacity_mbps,
                t.total_capacity_mbps,
                t.lte_interrupted,
                t.nr_interrupted,
            ]
            for t in log.ticks
        ],
        "reports": [
            [
                r.time_s,
                r.label,
                r.serving_gci,
                r.neighbour_gci,
                _rrs_to_list(r.serving_rrs),
                _rrs_to_list(r.neighbour_rrs),
            ]
            for r in log.reports
        ],
        "handovers": [
            {
                "type": h.ho_type.name,
                "decision_time_s": h.decision_time_s,
                "exec_start_s": h.exec_start_s,
                "complete_s": h.complete_s,
                "t1_ms": h.t1_ms,
                "t2_ms": h.t2_ms,
                "mode_before": h.mode_before.value,
                "mode_after": h.mode_after.value,
                "source_gci": h.source_gci,
                "target_gci": h.target_gci,
                "source_pci": h.source_pci,
                "target_pci": h.target_pci,
                "band_class": h.band_class.value if h.band_class is not None else None,
                "arc_m": h.arc_m,
                "colocated": h.colocated,
                "same_pci_legs": h.same_pci_legs,
                "trigger_labels": list(h.trigger_labels),
                "signaling": [
                    h.signaling.rrc_measurement_reports,
                    h.signaling.rrc_reconfigurations,
                    h.signaling.rrc_reconfiguration_completes,
                    h.signaling.rach_procedures,
                    h.signaling.phy_ssb_measurements,
                ],
                "energy_j": h.energy_j,
            }
            for h in log.handovers
        ],
    }


def log_from_dict(payload: dict) -> DriveLog:
    """Rebuild a drive log from :func:`log_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported drive-log format version {version!r}")
    mode_by_value = {m.value: m for m in RadioMode}
    band_by_value = {b.value: b for b in BandClass}
    ticks = [
        TickRecord(
            time_s=row[0],
            arc_m=row[1],
            x_m=row[2],
            y_m=row[3],
            speed_mps=row[4],
            mode=mode_by_value[row[5]],
            lte_serving_gci=row[6],
            lte_serving_pci=row[7],
            nr_serving_gci=row[8],
            nr_serving_pci=row[9],
            nr_band_class=band_by_value[row[10]] if row[10] is not None else None,
            lte_rrs=_rrs_from_list(row[11]),
            nr_rrs=_rrs_from_list(row[12]),
            lte_neighbours=_neighbours_from_list(row[13]),
            nr_neighbours=_neighbours_from_list(row[14]),
            lte_capacity_mbps=row[15],
            nr_capacity_mbps=row[16],
            total_capacity_mbps=row[17],
            lte_interrupted=row[18],
            nr_interrupted=row[19],
        )
        for row in payload["ticks"]
    ]
    reports = [
        ReportRecord(
            time_s=row[0],
            label=row[1],
            serving_gci=row[2],
            neighbour_gci=row[3],
            serving_rrs=_rrs_from_list(row[4]),
            neighbour_rrs=_rrs_from_list(row[5]),
        )
        for row in payload["reports"]
    ]
    handovers = [
        HandoverRecord(
            ho_type=HandoverType[h["type"]],
            decision_time_s=h["decision_time_s"],
            exec_start_s=h["exec_start_s"],
            complete_s=h["complete_s"],
            t1_ms=h["t1_ms"],
            t2_ms=h["t2_ms"],
            mode_before=mode_by_value[h["mode_before"]],
            mode_after=mode_by_value[h["mode_after"]],
            source_gci=h["source_gci"],
            target_gci=h["target_gci"],
            source_pci=h["source_pci"],
            target_pci=h["target_pci"],
            band_class=band_by_value[h["band_class"]]
            if h["band_class"] is not None
            else None,
            arc_m=h["arc_m"],
            colocated=h["colocated"],
            same_pci_legs=h["same_pci_legs"],
            trigger_labels=tuple(h["trigger_labels"]),
            signaling=SignalingTally(*h["signaling"]),
            energy_j=h["energy_j"],
        )
        for h in payload["handovers"]
    ]
    bearer = BearerMode(payload["bearer"]) if payload["bearer"] is not None else None
    return DriveLog(
        payload["carrier"],
        bearer,
        ticks,
        reports,
        handovers,
        scenario=payload.get("scenario", ""),
    )


def save_log(log: DriveLog, path: str | Path) -> Path:
    """Write a drive log to ``path`` (gzipped when it ends in ``.gz``)."""
    path = Path(path)
    text = json.dumps(log_to_dict(log), separators=(",", ":"))
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def load_log(path: str | Path) -> DriveLog:
    """Read a drive log written by :func:`save_log`."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
    return log_from_dict(payload)
