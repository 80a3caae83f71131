"""Pothole-to-camera distance."""

from __future__ import annotations

import math

import numpy as np

from .errors import NoValidDepth
from .geometry import BBox, CameraIntrinsics, DepthMap, clip_to_image, pixel_grid


def center_distance(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> float:
    """Euclidean distance from the camera to the box-center pixel.

    Falls back to the median of valid depths inside the box when the
    center pixel itself carries no valid depth.
    """
    clipped = clip_to_image(b, intr)
    u = int(round(clipped.cx))
    v = int(round(clipped.cy))
    u = min(max(u, 0), intr.width - 1)
    v = min(max(v, 0), intr.height - 1)
    z = d.depth_at(u, v)
    if z is None:
        u0, u1, v0, v1 = pixel_grid(b, intr)
        if u0 >= u1 or v0 >= v1:
            raise NoValidDepth("box does not intersect the image")
        patch = d.values[v0:v1, u0:u1]
        valid = patch[np.isfinite(patch) & (patch > 0.0)]
        if valid.size == 0:
            raise NoValidDepth("no valid depth inside the box")
        z = float(np.median(valid))
    x, y = intr.ray(u, v)
    X, Y = x * z, y * z
    return math.sqrt(X * X + Y * Y + z * z)
