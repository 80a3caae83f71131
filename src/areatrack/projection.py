"""Pothole-to-camera distance."""

from __future__ import annotations

from .errors import NoValidDepth
from .geometry import BBox, CameraIntrinsics, DepthMap, as_xywh
from .mbtp import box_setup


def center_distance(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> float:
    """Euclidean distance from the camera to the box-center pixel.

    Falls back to the median of valid depths inside the box when the
    center pixel itself carries no valid depth; ``mbtp.box_setup`` for
    one box.
    """
    _, (dist,) = box_setup(as_xywh([b]), d, intr)
    if isinstance(dist, NoValidDepth):
        raise dist
    return dist
