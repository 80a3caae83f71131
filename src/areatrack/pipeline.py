"""End-to-end sequence processing: detections + depth in, tracked and
smoothed area records out."""

from __future__ import annotations

import logging
import mmap
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cdkf import CdkfConfig
from . import cdkf
from .errors import AreatrackError, DimensionMismatch
from .formats import (
    FrameDetections,
    FrameEntry,
    FrameResultRecord,
    ResultColumns,
    ResultTable,
    SequenceManifest,
    detection_columns,
    parse_file,
    parse_motion_file,
    parse_pfm,
    result_table,
)
from .geometry import BBox, CameraIntrinsics, DepthMap, MotionTransform
from .mbtp import estimate_areas
from .metrics import MIN_TRACK_LEN, AreaConsistencyReport, block_report, length_blocks
from .tracking import Tracker, fit_motion_ransac

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    cdkf: CdkfConfig = field(default_factory=CdkfConfig)
    smoothing: bool = True
    seed: int = 0


class FrameProcessingError(AreatrackError):
    """Wraps a per-frame failure with its frame index."""

    def __init__(self, frame: int, cause: Exception):
        super().__init__(f"frame {frame}: {cause}")
        self.frame = frame


def run_pipeline(
    manifest: SequenceManifest, config: PipelineConfig = PipelineConfig()
) -> tuple[ResultTable, AreaConsistencyReport]:
    """Process frames in order through tracking and area estimation, then
    smooth each track's raw areas with ``cdkf.filter_tracks``.

    Per-frame input errors abort with the frame index. Each detection is
    measured before tracking by ``mbtp.estimate_areas``, and one that it
    cannot measure is skipped there with one log line naming its frame, its
    box and the skip: ``OversizedBox``, ``EmptyRegion``, ``NoValidDepth`` or
    ``FoldedRegion``. A skipped detection starts no track and leaves no
    record; a live track whose detection is skipped coasts through that
    frame as if unmatched.

    Depth files are memory-mapped, not read: only the pages that the
    frame's boxes touch are loaded. A depth file must therefore not be
    truncated or rewritten while its frame is processed. A detections file
    that several frames share is parsed once, by the first of them.

    The frames' rows come out in (frame, track_id) order, the order that
    ``smooth_records`` sorts records into, so their columns make the raw
    table as they are, and ``smooth_records`` and the report read the one
    layout it builds.
    """
    tracker = Tracker()
    detections: dict[Path, dict[int, FrameDetections]] = {}  # each file's detections not yet taken
    rows: list[tuple] = []
    for entry in manifest.frames:
        rows += _process_frame(entry, manifest.intrinsics, tracker, config.seed, detections)
    frame, track_id, class_id, x, y, w, h, confidence, distance, area, fraction = (
        list(zip(*rows)) or [()] * 11)
    records = ResultTable(ResultColumns(frame, track_id, class_id, x, y, w, h, confidence, distance,
                                        area, area, [0.0] * len(area), fraction))
    if config.smoothing:
        records = smooth_records(records, config.cdkf)
    return records, report_from_records(records)


_NO_DETECTIONS: FrameDetections = (np.zeros((0, 4)), np.zeros(0), [])


def _process_frame(
    entry: FrameEntry, intr: CameraIntrinsics, tracker: Tracker, seed: int,
    detections: dict[Path, dict[int, FrameDetections]],
) -> list[tuple]:
    """The raw result rows of one frame, by track id: frame, track id, class
    id, x, y, w, h, confidence, distance, raw area and valid patch fraction.
    Its depth map lives only in this call, so a later frame's error does
    not keep the map's file mapping open."""
    try:
        depth = _load_depth(entry.depth)
        if depth.width != intr.width or depth.height != intr.height:
            raise DimensionMismatch(f"depth {depth.width}x{depth.height} does not match intrinsics")
        path = entry.detections
        if path not in detections:
            detections[path] = parse_file(path, detection_columns)
        xywh, confidence, class_id = detections[path].pop(entry.frame, _NO_DETECTIONS)
        motion = _load_motion(entry.motion, seed, entry.frame)
    except (AreatrackError, OSError) as e:
        raise FrameProcessingError(entry.frame, e) from e

    estimates = estimate_areas(xywh, depth, intr)
    boxes = xywh.tolist()
    measured = []  # the rows of the measured detections
    for k, est in enumerate(estimates):
        if isinstance(est, AreatrackError):
            log.warning("frame %d: box %s: %s, skipping", entry.frame, BBox(*boxes[k]), est)
        else:
            measured.append(k)
    conf = confidence.tolist()
    rows = []
    for track_id, j in tracker.step(xywh[measured], confidence[measured], entry.frame, motion):
        k = measured[j]
        est = estimates[k]
        rows.append((entry.frame, track_id, class_id[k], *boxes[k], conf[k],
                     est.distance_m, est.area_m2, est.valid_patch_fraction))
    return rows


def _load_depth(path: Path) -> DepthMap:
    """``parse_pfm`` over a read-only mapping of the file; the map keeps
    the mapping open while it views it."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return parse_pfm(b"")  # mmap cannot map an empty file
        data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        return parse_pfm(data)
    except AreatrackError:
        data.close()
        raise


def _load_motion(path, seed: int, frame: int) -> MotionTransform | None:
    if path is None:
        return None
    kind, payload = parse_file(path, parse_motion_file)
    if kind == "transform":
        return MotionTransform(payload)
    if len(payload) < 3:
        return None
    # derive a per-frame deterministic RANSAC seed from the run seed
    return fit_motion_ransac(payload, seed=seed * 100003 + frame)


class TrackLayout:
    """What smoothing and scoring read of a result table, derived once from
    the columns that ``ResultTable.smoothed`` shares and kept in the table's
    ``layout`` slot, where every candidate of the tuner finds it: the table
    in (frame, track_id) order by a stable sort (``ordered``, None when it is
    in that order), each track's rows (``cdkf.track_rows``), the raw area,
    confidence and distance columns as float64 arrays, and the pothole rows
    that ``blocks`` groups by length."""

    __slots__ = ("ordered", "tracks", "area_raw", "confidence", "distance", "_potholes", "_blocks")

    def __init__(self, table: ResultTable):
        c = table.columns
        keys = list(zip(c.frame, c.track_id))
        self.ordered = None
        if not all(map(operator.le, keys, keys[1:])):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self.ordered = ResultTable(c._make([col[i] for i in order] for col in c))
        self.tracks = cdkf.track_rows(c.track_id)
        self.area_raw, self.confidence, self.distance = (
            np.asarray(col, dtype=np.float64) for col in (c.area_raw_m2, c.confidence, c.distance_m))
        # each pothole track's rows: manholes (class 1) are tracked but not scored
        self._potholes = {c.track_id[rows[0]]: potholes for rows in self.tracks
                          if (potholes := [i for i in rows if c.class_id[i] == 0])}
        self._blocks: dict[int, tuple] = {}

    def blocks(self, min_track_len: int) -> tuple[list[int], list[tuple[np.ndarray, np.ndarray]]]:
        """The ids, in order, of the pothole tracks with at least ``min_track_len``
        rows, and their rows as ``metrics.length_blocks`` of row indices."""
        if min_track_len not in self._blocks:
            tids = sorted(t for t, rows in self._potholes.items() if len(rows) >= min_track_len)
            self._blocks[min_track_len] = tids, list(length_blocks([self._potholes[t] for t in tids], np.intp))
        return self._blocks[min_track_len]


def _layout(table: ResultTable) -> TrackLayout:
    if table.layout is None:
        table.layout = TrackLayout(table)
    return table.layout


def smooth_records(records: Sequence[FrameResultRecord], cfg: CdkfConfig) -> ResultTable:
    """Per-track smoothing over raw area measurements, in frame order.

    The tuner calls it to try candidate noise weights without repeating
    tracking and area estimation, and ``run_pipeline`` to smooth its rows.
    The records, as a table, are put in (frame, track_id) order by a stable
    sort, skipped when they are in it already, and their columns filtered
    by ``cdkf.filter_tracks``, one loop per track; a repeated (frame,
    track_id) record counts as the track's next measurement. The sort and
    the grouping are the table's layout's, made by its first call. The
    result shares every column of the ordered table but the smoothed area
    and the NIS, and so its layout.
    """
    table = result_table(records)
    layout = _layout(table)
    if layout.ordered is not None:
        table = layout.ordered
        layout = _layout(table)
    return table.smoothed(*cdkf.filter_tracks(layout.area_raw, layout.confidence, layout.distance,
                                              layout.tracks, cfg))


def report_from_records(
    records: Sequence[FrameResultRecord], min_track_len: int = MIN_TRACK_LEN
) -> AreaConsistencyReport:
    """Per-track consistency metrics over result records.

    Each pothole track's smoothed areas, and its NIS after the first, are
    gathered from the table's columns by the row blocks of its layout and
    reduced by ``metrics.block_report``. Manholes (class 1) flow through
    tracking and estimation but are excluded from the pothole report.
    """
    table = result_table(records)
    tids, blocks = _layout(table).blocks(min_track_len)
    area = np.asarray(table.columns.area_smoothed_m2, dtype=np.float64)
    nis = np.asarray(table.columns.nis, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # a file's huge areas overflow to inf or NaN
        return block_report(tids, [(at, area[rows]) for at, rows in blocks],
                            [(at, nis[rows[:, 1:]]) for at, rows in blocks], min_track_len)
