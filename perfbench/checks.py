"""Correctness checks on workload outputs.

They use no code of the package under test, so a defect there cannot hide
in the check. Each raises ``CheckFailed`` with what went wrong.
"""

from __future__ import annotations

import statistics
from typing import Callable, Iterable, Mapping

import numpy as np


class CheckFailed(Exception):
    pass


def same_bytes(expected: bytes, got: bytes, what: str) -> None:
    if expected != got:
        n = min(len(expected), len(got))
        first = next((i for i in range(n) if expected[i] != got[i]), n)
        raise CheckFailed(f"{what}: output differs from the first pass at byte {first}")


def at_most(value: float, limit: float, what: str) -> None:
    if not value <= limit:  # also trips on NaN
        raise CheckFailed(f"{what} = {value:.6g} exceeds its sanity limit {limit:g}")


def same_history(expected, got) -> None:
    if list(expected) != list(got):
        raise CheckFailed("optimizer history differs for the same seed")


def plane_depth_outside(depth: np.ndarray, plane: np.ndarray, inside: np.ndarray,
                        rtol: float) -> None:
    """Depth away from every depression must be the exact ray-plane depth."""
    out = ~inside
    err = np.abs(depth[out].astype(np.float64) / plane[out] - 1.0)
    if not err.size or not float(err.max()) <= rtol:
        worst = float(err.max()) if err.size else float("nan")
        raise CheckFailed(f"rendered depth off the closed-form plane by {worst:.3g} (limit {rtol:g})")


def box_iou(a, b) -> float:
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def area_quality(
    records: Iterable,
    true_boxes: Callable[[int], Mapping[int, object]],
    truth: Callable[[int, int], float],
    min_iou: float = 0.3,
) -> tuple[float, float]:
    """(area_rel_err, tracks_per_object) of pothole result records.

    Each track is assigned to the object its last box overlaps most in
    that frame. An object's estimate is the last smoothed area of the
    track seen latest; its error is |estimate / truth - 1|. A track that
    overlaps no object counts against tracks_per_object.
    """
    last = {}
    for r in records:
        if r.class_id == 0 and (r.track_id not in last or r.frame >= last[r.track_id].frame):
            last[r.track_id] = r
    if not last:
        raise CheckFailed("no pothole records")
    latest: dict[int, object] = {}
    for r in last.values():
        boxes = true_boxes(r.frame)
        obj, best = None, min_iou
        for i, box in boxes.items():
            v = box_iou(box, r.bbox)
            if v >= best:
                obj, best = i, v
        if obj is not None and (obj not in latest or r.frame > latest[obj].frame):
            latest[obj] = r
    if not latest:
        raise CheckFailed("no track overlaps a true object")
    errs = [abs(r.area_smoothed_m2 / truth(i, r.frame) - 1.0) for i, r in latest.items()]
    return statistics.median(errs), len(last) / len(latest)
