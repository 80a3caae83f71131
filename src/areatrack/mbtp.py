"""Depth-based box area estimation.

The estimator back-projects every pixel of a detection box to the camera
XY plane, sums the areas of per-2x2-pixel triangle pairs whose four
corners are valid, and scales the total by pi/4 to account for the roughly
elliptical shape of potholes. The paper also keeps only patches inside the
minimum bounding rectangle of the valid points; every valid point lies in
that rectangle by construction, so no patch needs checking against it.

``estimate_area`` returns only what it measures; the caller keeps the
frame, track and detection that the estimate belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyRegion
from .geometry import BBox, CameraIntrinsics, DepthMap, pixel_grid
from .projection import center_distance

ELLIPSE_FACTOR = math.pi / 4.0

Point2 = tuple[float, float]


@dataclass
class ProjectedRegion:
    """Back-projected pixel grid of a clipped detection box.

    X/Y are (H, W) camera-plane coordinates of the integer pixels
    [v0:v0+H, u0:u0+W], NaN where the depth is invalid; ``valid`` marks
    pixels whose depth was finite and positive.
    """

    u0: int
    v0: int
    X: np.ndarray
    Y: np.ndarray
    valid: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.X.shape


@dataclass(frozen=True)
class AreaEstimate:
    """What the estimator measures for one box: the ellipse-scaled area,
    the complete and all 2x2 patches, and the distance to the box center."""

    area_m2: float
    valid_patch_count: int
    total_patch_count: int
    distance_m: float

    @property
    def valid_patch_fraction(self) -> float:
        if self.total_patch_count == 0:
            return 0.0
        return self.valid_patch_count / self.total_patch_count


def project_region(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> ProjectedRegion:
    """Back-project every integer pixel of the clipped box."""
    u0, u1, v0, v1 = pixel_grid(b, intr)
    if u0 >= u1 or v0 >= v1:
        raise EmptyRegion(f"box {b} covers no pixels")
    Z = np.asarray(d.values[v0:v1, u0:u1], dtype=np.float64)
    valid = np.isfinite(Z) & (Z > 0.0)
    us = np.arange(u0, u1, dtype=np.float64)
    vs = np.arange(v0, v1, dtype=np.float64)
    X = (us[None, :] - intr.p_u) / intr.f_u * Z
    Y = (vs[:, None] - intr.p_v) / intr.f_v * Z
    if not valid.all():
        X[~valid] = np.nan
        Y[~valid] = np.nan
    return ProjectedRegion(u0=u0, v0=v0, X=X, Y=Y, valid=valid)


def triangle_area(p1: Point2, p2: Point2, p3: Point2) -> float:
    """Half the absolute cross product of two edge vectors."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))


def patch_area(r: ProjectedRegion, u: int, v: int) -> Optional[float]:
    """Area of the 2x2 patch anchored at image pixel (u, v).

    The patch quad (P0..P3) is split into triangles (P0,P1,P2) and
    (P0,P2,P3). Returns None (skipped) when any corner is invalid.
    """
    i = v - r.v0
    j = u - r.u0
    h, w = r.shape
    if not (0 <= i < h - 1 and 0 <= j < w - 1):
        raise IndexError(f"patch ({u}, {v}) outside region grid")
    if not (r.valid[i, j] and r.valid[i, j + 1] and r.valid[i + 1, j] and r.valid[i + 1, j + 1]):
        return None
    p0 = (r.X[i, j], r.Y[i, j])
    p1 = (r.X[i, j + 1], r.Y[i, j + 1])
    p2 = (r.X[i + 1, j], r.Y[i + 1, j])
    p3 = (r.X[i + 1, j + 1], r.Y[i + 1, j + 1])
    return triangle_area(p0, p1, p2) + triangle_area(p0, p2, p3)


def _patch_areas(r: ProjectedRegion) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized triangle-pair areas and validity for all 2x2 patches.

    tri1 = |(x1-x0)(y2-y0) - (y1-y0)(x2-x0)| / 2 and
    tri2 = |(x2-x0)(y3-y0) - (y2-y0)(x3-x0)| / 2, computed on six edge
    differences in place, in the same operation order as the plain formula,
    so the values are bit-identical to it. Flat index k = i*w + j anchors
    patch (i, j), whose corners sit at k, k+1, k+w and k+w+1, so every
    operation runs over one contiguous range; the k with j = w-1 straddle
    two rows and are cut off the returned (h-1, w-1) view.
    """
    X, Y, valid = r.X, r.Y, r.valid
    h, w = X.shape
    n = max((h - 1) * w - 1, 0)
    x, y = X.ravel(), Y.ravel()
    buf = np.empty((6, (h - 1) * w))
    dx1, dy1, dx2, dy2, dx3, dy3 = buf[:, :n]
    np.subtract(x[1 : n + 1], x[:n], out=dx1)
    np.subtract(y[1 : n + 1], y[:n], out=dy1)
    np.subtract(x[w : n + w], x[:n], out=dx2)
    np.subtract(y[w : n + w], y[:n], out=dy2)
    np.subtract(x[w + 1 : n + w + 1], x[:n], out=dx3)
    np.subtract(y[w + 1 : n + w + 1], y[:n], out=dy3)
    tri1 = np.multiply(dx1, dy2, out=dx1)
    tri1 -= np.multiply(dy1, dx2, out=dy1)
    tri2 = np.multiply(dx2, dy3, out=dx2)
    tri2 -= np.multiply(dy2, dx3, out=dy2)
    for t in (tri1, tri2):
        np.abs(t, out=t)
        t *= 0.5
    tri1 += tri2
    ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    return buf[0].reshape(h - 1, w)[:, : w - 1], ok


def estimate_area(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> AreaEstimate:
    """Full area estimate for one detection box.

    Sums the areas of 2x2 patches whose four corners are valid, then
    applies the pi/4 ellipse factor. Yields area 0 with zero valid patches
    when no complete patch exists.
    """
    region = project_region(b, d, intr)
    dist = center_distance(b, d, intr)
    h, w = region.shape
    total = max(0, (h - 1)) * max(0, (w - 1))
    areas, ok = _patch_areas(region)
    count = int(ok.sum())
    if count == 0:
        return AreaEstimate(0.0, 0, total, dist)
    area = float(areas[ok].sum()) * ELLIPSE_FACTOR
    return AreaEstimate(area, count, total, dist)
