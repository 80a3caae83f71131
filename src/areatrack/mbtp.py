"""Depth-based box area estimation.

The estimator back-projects every pixel of a detection box to the camera
XY plane, sums the areas of per-2x2-pixel triangle pairs whose four
corners are valid, and scales the total by pi/4 to account for the roughly
elliptical shape of potholes. The paper also keeps only patches inside the
minimum bounding rectangle of the valid points; every valid point lies in
that rectangle by construction, so no patch needs checking against it.

``box_setup`` finds every box's pixel extents and the camera's distance
to its centre, the weight CDKF gives the estimate, in one vectorised
pass. ``estimate_areas`` measures all of a frame's boxes on it;
``estimate_area`` and ``projection.center_distance`` are its one-box
cases. All return only what they measure, and the caller keeps the
frame, track and detection that an estimate belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import EmptyRegion, NoValidDepth
from .geometry import BBox, CameraIntrinsics, DepthMap, as_xywh, pixel_grid

ELLIPSE_FACTOR = math.pi / 4.0
# cells of one packed canvas: larger canvases fall out of cache and run slower
CANVAS_PX = 1 << 14

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
    xhat, yhat = intr.ray(np.arange(u0, u1, dtype=np.float64), np.arange(v0, v1, dtype=np.float64))
    X, Y = xhat[None, :] * Z, yhat[:, None] * Z
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


def _patch_areas(
    X: np.ndarray, Y: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized triangle-pair areas and validity for all 2x2 patches of
    the (h, w) grid X, Y, valid.

    tri1 = |(x1-x0)(y2-y0) - (y1-y0)(x2-x0)| / 2 and
    tri2 = |(x2-x0)(y3-y0) - (y2-y0)(x3-x0)| / 2, computed on six edge
    differences in place, in the same operation order as the plain formula,
    so the values are bit-identical to it. Flat index k = i*w + j anchors
    patch (i, j), whose corners sit at k, k+1, k+w and k+w+1, so every
    operation runs over one contiguous range; the k with j = w-1 straddle
    two rows and are cut off the returned (h-1, w-1) view.
    """
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


def _measure_packed(
    extents: list[list[int]], dists: list[float], d: DepthMap, intr: CameraIntrinsics
) -> list[AreaEstimate]:
    """Estimates for the boxes whose pixel extents ``[u0, v0, u1, v1]``
    (all nonempty) and centre distances are given, from one
    ``_patch_areas`` pass over a canvas that stacks their depth blocks as
    row blocks.

    Box k fills rows [r0, r0+h) and columns [0, w) of the canvas; the rest
    of its rows hold a valid dummy depth. Its patches are the canvas
    patches in rows [r0, r0+h-1) and columns [0, w-1): none of them reads
    a dummy column or another box's row, so each has the bits the box
    alone would give. Each box's valid areas are summed on their own, in
    the order and with the pairwise summation of a one-box pass.
    """
    xhat, yhat = _rays(intr)
    r0 = [0, *accumulate(v1 - v0 for _, v0, _, v1 in extents)]
    width = max(u1 - u0 for u0, _, u1, _ in extents)
    Z = np.empty((r0[-1], width))
    X = np.empty_like(Z)
    blocks = list(zip(r0, r0[1:], extents, dists))
    with np.errstate(invalid="ignore"):  # 0 * inf on a principal ray; NaN-ed below
        for a, b, (u0, v0, u1, v1), _ in blocks:
            w = u1 - u0
            z = Z[a:b, :w]
            z[...] = d.values[v0:v1, u0:u1]
            if w < width:  # valid, so a clean frame still skips the NaN scatter
                Z[a:b, w:] = 1.0
                X[a:b, w:] = 0.0
            np.multiply(xhat[u0:u1], z, out=X[a:b, :w])
        Y = np.concatenate([yhat[v0:v1] for _, v0, _, v1 in extents])[:, None] * Z
    valid = np.isfinite(Z) & (Z > 0.0)
    if not valid.all():
        X[~valid] = np.nan
        Y[~valid] = np.nan
    areas, ok = _patch_areas(X, Y, valid)
    out = []
    for a, b, (u0, _, u1, _), dist in blocks:
        own = np.s_[a : b - 1, : u1 - u0 - 1]
        picked = areas[own][ok[own]]
        total = (b - a - 1) * (u1 - u0 - 1)
        out.append(AreaEstimate(float(picked.sum()) * ELLIPSE_FACTOR, picked.size, total, dist))
    return out


@lru_cache(maxsize=8)
def _rays(intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of ``intr.ray`` over every pixel column u and row v:
    xhat[u] and yhat[v], the factors that depth is multiplied by."""
    xhat, yhat = intr.ray(np.arange(intr.width, dtype=np.float64),
                          np.arange(intr.height, dtype=np.float64))
    xhat.setflags(write=False)
    yhat.setflags(write=False)
    return xhat, yhat


def box_setup(
    boxes: np.ndarray, d: DepthMap, intr: CameraIntrinsics
) -> tuple[list[list[int]], list[float | NoValidDepth]]:
    """``pixel_grid``'s extents ``[u0, v0, u1, v1]`` and the centre distance
    of every ``[x, y, w, h]`` float64 row of ``boxes`` (N, 4), or the
    ``NoValidDepth`` that says why a box has none. The distance is to the
    centre pixel of the box clipped to [0, width-1] x [0, height-1]
    (``np.rint`` rounds half to even, like ``round``), at its depth or else
    at the median valid depth in the box."""
    corners = boxes.reshape(-1, 2, 2).copy()
    corners[:, 1] += corners[:, 0]  # rows [[x, y], [right, bottom]]
    size = np.array([intr.width, intr.height], dtype=np.float64)
    inside = np.maximum(corners, 0.0)
    # pixel_grid's extents, clipped in float before the cast so a huge far edge stays in range
    grid = np.minimum(inside, size)
    np.floor(grid[:, 0], out=grid[:, 0])
    np.ceil(grid[:, 1], out=grid[:, 1])
    extents = grid.reshape(-1, 4).astype(np.intp).tolist()
    # the centre of the box clipped to the image; rint keeps it inside the image
    c0, c1 = np.minimum(inside, size - 1.0).transpose(1, 0, 2)
    cu, cv = np.rint(c0 + np.maximum(0.0, c1 - c0) / 2.0).astype(np.intp).T
    z = d.values[cv, cu].astype(np.float64)
    errors = {}
    for i in np.flatnonzero(~(np.isfinite(z) & (z > 0.0))).tolist():
        u0, v0, u1, v1 = extents[i]
        patch = d.values[v0:v1, u0:u1]
        valid = patch[np.isfinite(patch) & (patch > 0.0)]
        if valid.size:
            z[i] = np.median(valid)
        else:
            z[i] = 1.0
            errors[i] = NoValidDepth("box does not intersect the image" if u0 >= u1 or v0 >= v1
                                     else "no valid depth inside the box")
    xhat, yhat = _rays(intr)
    X, Y = xhat[cu] * z, yhat[cv] * z
    dist = np.sqrt(X * X + Y * Y + z * z).tolist()
    return extents, [errors.get(i, r) for i, r in enumerate(dist)]


def estimate_areas(
    boxes: np.ndarray, d: DepthMap, intr: CameraIntrinsics
) -> list[AreaEstimate | EmptyRegion | NoValidDepth]:
    """Area estimates for every ``[x, y, w, h]`` row of ``boxes`` (N, 4) on
    one depth map, in row order.

    Each entry is what ``estimate_area`` returns for that box, or the
    ``EmptyRegion`` or ``NoValidDepth`` it raises, bit for bit. The boxes'
    patches are measured on shared canvases of at most ``CANVAS_PX``
    cells; a larger box gets a canvas of its own.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    extents, dists = box_setup(boxes, d, intr)
    out: list[AreaEstimate | EmptyRegion | NoValidDepth | None] = [None] * len(boxes)
    groups: list[list[int]] = []
    rows = cols = 0
    for i, ((u0, v0, u1, v1), dist) in enumerate(zip(extents, dists)):
        h, w = v1 - v0, u1 - u0
        if h <= 0 or w <= 0:
            out[i] = EmptyRegion(f"box {BBox(*boxes[i].tolist())} covers no pixels")
            continue
        if isinstance(dist, NoValidDepth):
            out[i] = dist
            continue
        if groups and (rows + h) * max(cols, w) <= CANVAS_PX:
            groups[-1].append(i)
            rows, cols = rows + h, max(cols, w)
        else:
            groups.append([i])
            rows, cols = h, w
    for g in groups:
        for i, est in zip(g, _measure_packed([extents[i] for i in g], [dists[i] for i in g], d, intr)):
            out[i] = est
    return out


def estimate_area(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> AreaEstimate:
    """Full area estimate for one detection box: its ``estimate_areas``
    entry, raised if it is a skip.

    Sums the areas of 2x2 patches whose four corners are valid, then
    applies the pi/4 ellipse factor. Yields area 0 with zero valid patches
    when no complete patch exists. Raises ``EmptyRegion`` when the box
    covers no pixels and ``NoValidDepth`` when no pixel of it has depth.
    """
    (est,) = estimate_areas(as_xywh([b]), d, intr)
    if isinstance(est, Exception):
        raise est
    return est
