"""Feature/label extraction from drive logs for the §7.3 baselines.

Ground-truth labelling matches the paper's prediction problem: at tick
time t, the label is the type of the handover whose *decision* falls in
the next prediction window (t, t + 1 s], or NONE. The two baselines see
different inputs:

* GBC (Mei et al.): lower-layer radio features of the serving and
  strongest neighbouring cells, plus short-horizon RSRP slopes.
* Stacked LSTM (Ozturk et al.): the location track (position, speed) as
  a sequence window.

Extraction is array-at-once: each log is converted to per-tick
primitive arrays in a single light pass, feature rows are assembled
with numpy indexing, and labels come from one ``np.searchsorted`` over
the log's handover decision times (:func:`labels_for_times`) instead of
a per-tick linear scan over ``log.handovers``. The scalar
:func:`label_for_tick` is retained as the labelling reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rrc.taxonomy import HandoverType
from repro.simulate.records import DriveLog, TickRecord

#: Sentinel RRS values for absent legs/neighbours (below any real value).
_ABSENT_RSRP = -140.0
_ABSENT_RSRQ = -25.0
_ABSENT_SINR = -15.0


@dataclass(frozen=True)
class LabeledDataset:
    """Features (flat or sequential) with aligned labels and times."""

    x: np.ndarray
    labels: list[HandoverType]
    times_s: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape[0] != len(self.labels) or self.x.shape[0] != len(self.times_s):
            raise ValueError("features, labels, times must align")

    @property
    def positives(self) -> int:
        return sum(1 for label in self.labels if label is not HandoverType.NONE)


def label_for_tick(log: DriveLog, time_s: float, window_s: float) -> HandoverType:
    """Handover type decided within (time_s, time_s + window_s], or NONE.

    Scalar reference for :func:`labels_for_times` (one linear scan over
    ``log.handovers`` per call).
    """
    for record in log.handovers:
        if time_s < record.decision_time_s <= time_s + window_s:
            return record.ho_type
    return HandoverType.NONE


def labels_for_times(
    log: DriveLog, times_s: np.ndarray, window_s: float
) -> list[HandoverType]:
    """Vectorized :func:`label_for_tick` for an array of tick times."""
    return decision_labels(
        np.array([h.decision_time_s for h in log.handovers], dtype=float),
        [h.ho_type for h in log.handovers],
        times_s,
        window_s,
    )


def decision_labels(
    decisions: np.ndarray,
    types: list[HandoverType],
    times_s: np.ndarray,
    window_s: float,
) -> list[HandoverType]:
    """:func:`labels_for_times` over the handovers' decision-time and
    type columns, so a packed log labels without handover objects.

    One ``np.searchsorted`` over the (sorted) handover decision times
    finds, per query time, the earliest decision strictly after it; the
    label is that handover's type when it falls inside the window.
    """
    times_s = np.asarray(times_s, dtype=float)
    if not len(types):
        return [HandoverType.NONE] * times_s.shape[0]
    order = np.argsort(decisions, kind="stable")
    decisions = decisions[order]
    types = [types[i] for i in order.tolist()]
    # Earliest decision with decision_time > t (window is (t, t+w]).
    first = np.searchsorted(decisions, times_s, side="right")
    in_window = (first < decisions.size) & (
        decisions[np.minimum(first, decisions.size - 1)] <= times_s + window_s
    )
    return [
        types[first[i]] if in_window[i] else HandoverType.NONE
        for i in range(times_s.shape[0])
    ]


def _tick_radio_features(ticks: list[TickRecord], index: int, slope_ticks: int) -> list[float]:
    """Scalar per-tick feature extraction — reference for the array path."""
    tick = ticks[index]
    lte = tick.lte_rrs
    nr = tick.nr_rrs

    def triple(sample):
        if sample is None:
            return [_ABSENT_RSRP, _ABSENT_RSRQ, _ABSENT_SINR]
        return [sample.rsrp_dbm, sample.rsrq_db, sample.sinr_db]

    features = triple(lte) + triple(nr)
    for neighbours in (tick.lte_neighbours, tick.nr_neighbours):
        top = [n.rrs.rsrp_dbm for n in neighbours[:2]]
        top += [_ABSENT_RSRP] * (2 - len(top))
        features.extend(top)
    # Differentials: strongest neighbour minus serving, per object.
    lte_best = tick.lte_neighbours[0].rrs.rsrp_dbm if tick.lte_neighbours else _ABSENT_RSRP
    nr_best = tick.nr_neighbours[0].rrs.rsrp_dbm if tick.nr_neighbours else _ABSENT_RSRP
    features.append(lte_best - (lte.rsrp_dbm if lte else _ABSENT_RSRP))
    features.append(nr_best - (nr.rsrp_dbm if nr else _ABSENT_RSRP))
    # Serving RSRP slopes over the recent past.
    past = ticks[max(index - slope_ticks, 0)]
    past_lte = past.lte_rrs.rsrp_dbm if past.lte_rrs else _ABSENT_RSRP
    past_nr = past.nr_rrs.rsrp_dbm if past.nr_rrs else _ABSENT_RSRP
    features.append((lte.rsrp_dbm if lte else _ABSENT_RSRP) - past_lte)
    features.append((nr.rsrp_dbm if nr else _ABSENT_RSRP) - past_nr)
    # Attachment indicator.
    features.append(1.0 if tick.nr_serving_gci is not None else 0.0)
    return features


def _tick_primitives(log: DriveLog) -> np.ndarray:
    """(n_ticks, 11) primitive columns extracted in one light pass.

    Columns: lte rsrp/rsrq/sinr, nr rsrp/rsrq/sinr, lte top-2 neighbour
    rsrp, nr top-2 neighbour rsrp, nr-attached flag.

    Memoized per log (read-only array): the dataset builders and any
    analysis consuming radio primitives share one extraction pass.
    """
    cached = log.__dict__.get("_tick_primitives")
    if cached is not None:
        return cached

    def triple(sample):
        if sample is None:
            return (_ABSENT_RSRP, _ABSENT_RSRQ, _ABSENT_SINR)
        return (sample.rsrp_dbm, sample.rsrq_db, sample.sinr_db)

    def top2(neighbours):
        if not neighbours:
            return (_ABSENT_RSRP, _ABSENT_RSRP)
        if len(neighbours) == 1:
            return (neighbours[0].rrs.rsrp_dbm, _ABSENT_RSRP)
        return (neighbours[0].rrs.rsrp_dbm, neighbours[1].rrs.rsrp_dbm)

    primitives = np.array(
        [
            (
                *triple(t.lte_rrs),
                *triple(t.nr_rrs),
                *top2(t.lte_neighbours),
                *top2(t.nr_neighbours),
                1.0 if t.nr_serving_gci is not None else 0.0,
            )
            for t in log.ticks
        ],
        dtype=float,
    )
    primitives.setflags(write=False)
    log.__dict__["_tick_primitives"] = primitives
    return primitives


def _assemble_radio_rows(
    primitives: np.ndarray, indices: np.ndarray, slope_ticks: int
) -> np.ndarray:
    """Feature rows for ``indices`` from the primitive columns.

    Column layout matches :func:`_tick_radio_features` exactly.
    """
    now = primitives[indices]
    past = primitives[np.maximum(indices - slope_ticks, 0)]
    rows = np.empty((indices.size, 15))
    rows[:, 0:6] = now[:, 0:6]  # serving triples
    rows[:, 6:8] = now[:, 6:8]  # lte top-2 neighbours
    rows[:, 8:10] = now[:, 8:10]  # nr top-2 neighbours
    rows[:, 10] = now[:, 6] - now[:, 0]  # lte best-neighbour differential
    rows[:, 11] = now[:, 8] - now[:, 3]  # nr best-neighbour differential
    rows[:, 12] = now[:, 0] - past[:, 0]  # lte serving slope
    rows[:, 13] = now[:, 3] - past[:, 3]  # nr serving slope
    rows[:, 14] = now[:, 10]  # attachment indicator
    return rows


def log_time_offsets(logs: list[DriveLog]) -> list[float]:
    """Global time offset per log when concatenating a dataset.

    The same convention is used by the Prognos replay driver, so tick
    times, labels, and handover events line up across methods.
    """
    offsets = []
    offset = 0.0
    for log in logs:
        offsets.append(offset)
        offset += log.duration_s + 1.0
    return offsets


def handover_events(logs: list[DriveLog]) -> list[tuple[float, HandoverType]]:
    """(global time, type) of every handover decision across the logs."""
    events: list[tuple[float, HandoverType]] = []
    for log, offset in zip(logs, log_time_offsets(logs)):
        for record in log.handovers:
            events.append((record.decision_time_s + offset, record.ho_type))
    events.sort(key=lambda item: item[0])
    return events


def build_radio_feature_dataset(
    logs: list[DriveLog],
    *,
    window_s: float = 1.0,
    stride: int = 5,
) -> LabeledDataset:
    """Flat radio-feature dataset for the GBC baseline.

    Args:
        window_s: prediction window for labelling.
        stride: keep every ``stride``-th tick (training tractability; the
            paper's logs are 20 Hz).
    """
    blocks: list[np.ndarray] = []
    labels: list[HandoverType] = []
    time_blocks: list[np.ndarray] = []
    for log, offset in zip(logs, log_time_offsets(logs)):
        if not log.ticks:
            continue
        slope_ticks = max(int(1.0 / max(log.tick_interval_s, 1e-3)), 1)
        indices = np.arange(0, len(log.ticks), stride)
        primitives = _tick_primitives(log)
        blocks.append(_assemble_radio_rows(primitives, indices, slope_ticks))
        tick_times = np.array([log.ticks[i].time_s for i in indices])
        labels.extend(labels_for_times(log, tick_times, window_s))
        time_blocks.append(tick_times + offset)
    if not blocks:
        raise ValueError("no ticks in the provided logs")
    return LabeledDataset(np.vstack(blocks), labels, np.concatenate(time_blocks))


def build_location_sequence_dataset(
    logs: list[DriveLog],
    *,
    window_s: float = 1.0,
    history_ticks: int = 20,
    stride: int = 5,
) -> LabeledDataset:
    """Location-sequence dataset for the stacked LSTM baseline."""
    blocks: list[np.ndarray] = []
    labels: list[HandoverType] = []
    time_blocks: list[np.ndarray] = []
    for log, offset in zip(logs, log_time_offsets(logs)):
        if len(log.ticks) <= history_ticks:
            continue
        track = np.array(
            [[t.x_m, t.y_m, t.speed_mps, t.arc_m] for t in log.ticks], dtype=float
        )
        indices = np.arange(history_ticks, len(log.ticks), stride)
        # windows[s] is track[s : s + history_ticks]; the window ending
        # just before tick i starts at i - history_ticks.
        windows = np.lib.stride_tricks.sliding_window_view(
            track, history_ticks, axis=0
        )
        blocks.append(
            np.ascontiguousarray(
                windows[indices - history_ticks].transpose(0, 2, 1), dtype=float
            )
        )
        tick_times = np.array([log.ticks[i].time_s for i in indices])
        labels.extend(labels_for_times(log, tick_times, window_s))
        time_blocks.append(tick_times + offset)
    if not blocks:
        raise ValueError("logs too short for the requested history window")
    return LabeledDataset(np.vstack(blocks), labels, np.concatenate(time_blocks))


def upsample_positives(
    x: np.ndarray, labels: list[HandoverType], target_share: float = 0.08
) -> tuple[np.ndarray, list[HandoverType]]:
    """Replicate handover rows so each class reaches ~target_share.

    Classes are visited in deterministic ``Enum.name`` order (sorting by
    ``repr`` would couple the resampled row order — and therefore
    training results — to the enum's repr format).
    """
    labels_arr = np.array([l.name for l in labels])
    negatives = int(np.sum(labels_arr == HandoverType.NONE.name))
    rows = [x]
    out_labels = list(labels)
    for cls in sorted(set(labels), key=lambda c: c.name):
        if cls is HandoverType.NONE:
            continue
        mask = labels_arr == cls.name
        count = int(np.sum(mask))
        if count == 0:
            continue
        want = max(int(negatives * target_share), count)
        repeats = want // count
        if repeats > 1:
            extra = np.tile(x[mask], (repeats - 1, 1))
            rows.append(extra)
            out_labels.extend([cls] * extra.shape[0])
    return np.vstack(rows), out_labels


def train_test_split_by_time(
    dataset: LabeledDataset, train_fraction: float = 0.6
) -> tuple[LabeledDataset, LabeledDataset]:
    """Chronological split (the paper trains on the first 60%)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")
    cut = int(dataset.x.shape[0] * train_fraction)
    if cut < 1 or cut >= dataset.x.shape[0]:
        raise ValueError("split leaves an empty side")
    return (
        LabeledDataset(dataset.x[:cut], dataset.labels[:cut], dataset.times_s[:cut]),
        LabeledDataset(dataset.x[cut:], dataset.labels[cut:], dataset.times_s[cut:]),
    )
