"""Evaluation metrics: detection quality (P/R/F1/AP), per-track area
consistency (MAE/CV/AFD), filter consistency (NIS), and the combined
tuning objective J."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import EmptySeries, TooShort, ZeroMean
from .geometry import BBox, Detection, as_xywh, iou_matrix

AP_IOU_THRESHOLDS = [0.5 + 0.05 * i for i in range(10)]  # 0.50 .. 0.95
MIN_TRACK_LEN = 5  # the default shortest track that area consistency scores


# ---------------------------------------------------------------------------
# detection metrics


@dataclass(frozen=True)
class DetectionEvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    ap50: float
    ap50_95: float
    iou_thresh: float


def match_flags(
    dets: Sequence[Detection], gts: Sequence[BBox], iou_thresh: float
) -> list[bool]:
    """Per-detection TP flags, ordered by descending confidence.

    Each detection claims the highest-IoU ground truth still unmatched,
    provided that IoU clears the threshold.
    """
    return _flag_table(dets, gts, [iou_thresh])[:, 0].tolist()


def _flag_table(
    dets: Sequence[Detection], gts: Sequence[BBox], thresholds: Sequence[float]
) -> np.ndarray:
    """``match_flags`` at each of ``thresholds`` (columns) from one IoU
    matrix: each threshold keeps its own taken ground truths."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    flags = np.zeros((len(dets), len(thresholds)), dtype=bool)
    if not gts:
        return flags
    ious = iou_matrix(as_xywh(dets[i].bbox for i in order), as_xywh(gts))
    taken = np.zeros((len(thresholds), len(gts)), dtype=bool)
    cols = np.arange(len(thresholds))
    for r, row in enumerate(ious):
        free = np.where(taken | ~(row > 0.0), 0.0, row)
        j = np.argmax(free, axis=1)
        best = free[cols, j]
        flags[r] = hit = (best > 0.0) & (best >= thresholds)
        taken[cols[hit], j[hit]] = True
    return flags


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def average_precision(flags: Sequence[bool], n_gt: int) -> float:
    """101-point interpolated AP from confidence-ranked TP flags."""
    if n_gt == 0:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / n_gt
    # recall never falls, so the ranks that reach a recall level are a suffix:
    # the level's precision is that suffix's maximum, 0 when no rank reaches it
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    p = best[np.searchsorted(recall, np.linspace(0.0, 1.0, 101) - 1e-12)]
    return float(np.cumsum(p / 101.0)[-1])  # in level order: np.sum's pairwise order moves the last bit


def evaluate_detections(
    dets: Sequence[Detection], gts: Sequence[BBox], iou_thresh: float = 0.7
) -> DetectionEvalReport:
    """Single-class detection report on one frame's detections. Callers
    exclude manholes upstream."""
    return evaluate_detections_per_frame({0: dets}, {0: gts}, iou_thresh)


def evaluate_detections_per_frame(
    dets_by_frame: dict[int, list[Detection]],
    gts_by_frame: dict[int, list[BBox]],
    iou_thresh: float = 0.7,
) -> DetectionEvalReport:
    """Pools per-frame matches into one ranked list before AP integration:
    one flag table per frame, at ``iou_thresh`` and each AP threshold, its
    rows ranked by descending confidence, ties in frame and rank order."""
    frames = sorted(set(dets_by_frame) | set(gts_by_frame))
    thresholds = [iou_thresh, *AP_IOU_THRESHOLDS]
    confidence, tables = [], [np.zeros((0, len(thresholds)), dtype=bool)]
    n_gt = 0
    for f in frames:
        dets = dets_by_frame.get(f, [])
        gts = gts_by_frame.get(f, [])
        n_gt += len(gts)
        tables.append(_flag_table(dets, gts, thresholds))
        confidence += sorted((d.confidence for d in dets), reverse=True)
    flags = np.concatenate(tables)
    tp = int(flags[:, 0].sum())
    fp, fn = len(flags) - tp, n_gt - tp
    ranked = flags[np.argsort(-np.asarray(confidence, dtype=np.float64), kind="stable")]
    aps = [average_precision(column, n_gt) for column in ranked[:, 1:].T]
    p, r, f1 = precision_recall_f1(tp, fp, fn)
    return DetectionEvalReport(
        tp=tp, fp=fp, fn=fn, precision=p, recall=r, f1=f1,
        ap50=aps[0], ap50_95=sum(aps) / len(aps), iou_thresh=iou_thresh,
    )


# ---------------------------------------------------------------------------
# area consistency metrics
#
# Each statistic takes one series, or equal-length series stacked as the
# rows of a 2-D array, and reduces the last axis: a float for one series,
# an array of one value per row for a stack.


def area_mae(series: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Mean absolute deviation from the series mean."""
    a = np.asarray(series, dtype=np.float64)
    if a.shape[-1] == 0:
        raise EmptySeries("MAE of empty series")
    return np.mean(np.abs(a - a.mean(axis=-1, keepdims=True)), axis=-1)


def area_cv(series: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Population standard deviation over mean."""
    a = np.asarray(series, dtype=np.float64)
    if a.shape[-1] == 0:
        raise EmptySeries("CV of empty series")
    mean = a.mean(axis=-1, keepdims=True)
    bad = np.flatnonzero(mean <= 0.0)
    if bad.size:
        raise ZeroMean(f"CV undefined for mean {mean.flat[bad[0]]}")
    return np.sqrt(np.mean((a - mean) ** 2, axis=-1)) / mean[..., 0]


def area_afd(series: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Mean absolute difference between consecutive estimates."""
    a = np.asarray(series, dtype=np.float64)
    if a.shape[-1] < 2:
        raise TooShort("AFD needs at least two elements")
    return np.mean(np.abs(np.diff(a, axis=-1)), axis=-1)


def objective_j(mae: float, cv: float, afd: float, nis: float) -> float:
    """Combined filter-quality objective: 10*MAE + CV + AFD + NIS."""
    return 10.0 * mae + cv + afd + nis


@dataclass(frozen=True)
class TrackAreaStats:
    track_id: int
    n: int
    mean_area: float
    mae: float
    cv: float
    afd: float
    nis_mean: Optional[float]


@dataclass
class AreaConsistencyReport:
    """Unweighted per-track averages; tracks shorter than min_track_len
    are excluded."""

    mae: float
    cv: float
    afd: float
    nis_mean: float
    track_count: int
    min_track_len: int
    per_track: list[TrackAreaStats] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return objective_j(self.mae, self.cv, self.afd, self.nis_mean)


def area_consistency_report(
    areas_by_track: dict[int, Sequence[float]],
    nis_by_track: Optional[dict[int, Sequence[float]]] = None,
    min_track_len: int = MIN_TRACK_LEN,
) -> AreaConsistencyReport:
    """Per-track statistics of the tracks with at least ``min_track_len``
    areas, and their unweighted averages.

    The series of one length are stacked as the rows of one C-contiguous
    block and reduced along its rows, which sums each row in the same order
    as a 1-D ``np.mean`` of that series.
    """
    tids = sorted(t for t, s in areas_by_track.items() if len(s) >= min_track_len)
    if not tids:
        return AreaConsistencyReport(0.0, 0.0, 0.0, 0.0, 0, min_track_len, [])
    areas = [areas_by_track[t] for t in tids]
    mean, mae, cv, afd = np.zeros((4, len(tids)))
    for rows, block in _blocks(areas):
        # area_mae and area_cv, from one mean and one deviation per block
        mean[rows] = m = block.mean(axis=1)
        dev = block - m[:, None]
        mae[rows] = np.mean(np.abs(dev), axis=1)
        positive = m > 0.0  # CV is 0 where the mean is not positive or is NaN
        cv[rows[positive]] = np.sqrt(np.mean(dev[positive] ** 2, axis=1)) / m[positive]
        afd[rows] = area_afd(block)
    nis_series = [(nis_by_track or {}).get(t, ()) for t in tids]
    nis = np.zeros(len(tids))
    for rows, block in _blocks(nis_series):
        if block.shape[1]:
            nis[rows] = block.mean(axis=1)
    has_nis = np.array([len(s) > 0 for s in nis_series])
    per_track = [
        TrackAreaStats(track_id=t, n=len(s), mean_area=m, mae=e, cv=v, afd=f,
                       nis_mean=x if h else None)
        for t, s, m, e, v, f, x, h in zip(
            tids, areas, mean.tolist(), mae.tolist(), cv.tolist(), afd.tolist(),
            nis.tolist(), has_nis.tolist())
    ]
    return AreaConsistencyReport(
        mae=float(np.mean(mae)),
        cv=float(np.mean(cv)),
        afd=float(np.mean(afd)),
        nis_mean=float(np.mean(nis[has_nis])) if has_nis.any() else 0.0,
        track_count=len(per_track),
        min_track_len=min_track_len,
        per_track=per_track,
    )


def _blocks(series: list[Sequence[float]]):
    """(row indices, 2-D block) for each length in ``series``, shortest
    first: the series of that length, in order, as the rows of one
    C-contiguous float64 array."""
    lengths = np.array([len(s) for s in series])
    for k in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == k)
        yield rows, np.array([series[i] for i in rows.tolist()], dtype=np.float64)
