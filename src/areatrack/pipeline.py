"""End-to-end sequence processing: detections + depth in, tracked and
smoothed area records out."""

from __future__ import annotations

import logging
import mmap
import operator
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cdkf import CdkfConfig
from . import cdkf
from .errors import AreatrackError, DimensionMismatch
from .formats import (
    FrameEntry,
    FrameResultRecord,
    SequenceManifest,
    parse_detections,
    parse_file,
    parse_motion_file,
    parse_pfm,
)
from .geometry import CameraIntrinsics, DepthMap, Detection, MotionTransform, as_xywh
from .mbtp import estimate_areas
from .metrics import MIN_TRACK_LEN, AreaConsistencyReport, area_consistency_report
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
) -> tuple[list[FrameResultRecord], AreaConsistencyReport]:
    """Process frames in order through tracking and area estimation, then
    smooth each track's raw areas with ``smooth_records``.

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
    """
    tracker = Tracker()
    detections: dict[Path, dict[int, list[Detection]]] = {}  # each file's detections not yet taken
    records: list[FrameResultRecord] = []
    for entry in manifest.frames:
        records += _process_frame(entry, manifest.intrinsics, tracker, config.seed, detections)
    if config.smoothing:
        records = smooth_records(records, config.cdkf)
    return records, report_from_records(records)


def _process_frame(
    entry: FrameEntry, intr: CameraIntrinsics, tracker: Tracker, seed: int,
    detections: dict[Path, dict[int, list[Detection]]],
) -> list[FrameResultRecord]:
    """The raw records of one frame. Its depth map lives only in this call,
    so a later frame's error does not keep the map's file mapping open."""
    records = []
    try:
        depth = _load_depth(entry.depth_path)
        if depth.width != intr.width or depth.height != intr.height:
            raise DimensionMismatch(f"depth {depth.width}x{depth.height} does not match intrinsics")
        path = entry.detections_path
        if path not in detections:
            detections[path] = parse_file(path, parse_detections)
        dets = detections[path].pop(entry.frame, [])
        motion = _load_motion(entry.motion_path, seed, entry.frame)
    except (AreatrackError, OSError) as e:
        raise FrameProcessingError(entry.frame, e) from e

    boxes = as_xywh(d.bbox for d in dets)
    estimates = estimate_areas(boxes, depth, intr)
    rows = []  # the measured detections
    for k, (det, est) in enumerate(zip(dets, estimates)):
        if isinstance(est, AreatrackError):
            log.warning("frame %d: box %s: %s, skipping", entry.frame, det.bbox, est)
        else:
            rows.append(k)
    confidence = np.array([dets[k].confidence for k in rows], dtype=np.float64)
    for track_id, j in tracker.step(boxes[rows], confidence, entry.frame, motion):
        det, est = dets[rows[j]], estimates[rows[j]]
        records.append(
            FrameResultRecord(
                frame=entry.frame,
                track_id=track_id,
                class_id=det.class_id,
                bbox=det.bbox,
                confidence=det.confidence,
                distance_m=est.distance_m,
                area_raw_m2=est.area_m2,
                area_smoothed_m2=est.area_m2,
                nis=0.0,
                valid_patch_fraction=est.valid_patch_fraction,
            )
        )
    return records


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


def smooth_records(
    records: list[FrameResultRecord], cfg: CdkfConfig
) -> list[FrameResultRecord]:
    """Per-track smoothing over raw area measurements, in frame order.

    The pipeline's smoothing step; the tuner calls it directly to try
    candidate noise weights without repeating tracking and area estimation.
    The records are sorted by (frame, track_id) and filtered in one pass
    by ``cdkf.filter_tracks``; a repeated (frame, track_id) record counts
    as the track's next measurement.
    """
    ordered = sorted(records, key=operator.attrgetter("frame", "track_id"))
    areas, nis = cdkf.filter_tracks(
        [r.area_raw_m2 for r in ordered],
        [r.confidence for r in ordered],
        [r.distance_m for r in ordered],
        [r.track_id for r in ordered],
        cfg,
    )
    return [r.smoothed(a, n) for r, a, n in zip(ordered, areas, nis)]


def report_from_records(
    records: list[FrameResultRecord],
    min_track_len: int = MIN_TRACK_LEN,
    smoothed: bool = True,
) -> AreaConsistencyReport:
    """Per-track consistency metrics over result records.

    Manholes (class 1) flow through tracking and estimation but are
    excluded from the pothole report.
    """
    by_track: dict[int, list[FrameResultRecord]] = {}
    for r in records:
        if r.class_id == 0:
            by_track.setdefault(r.track_id, []).append(r)
    value = operator.attrgetter("area_smoothed_m2" if smoothed else "area_raw_m2")
    areas = {t: [value(r) for r in rs] for t, rs in by_track.items()}
    # the first update of a track has no meaningful innovation
    nis = {t: [r.nis for r in rs[1:]] for t, rs in by_track.items() if len(rs) > 1}
    return area_consistency_report(areas, nis, min_track_len=min_track_len)
