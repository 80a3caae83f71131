"""Depth-based box area estimation.

The estimator back-projects every pixel of a detection box to the camera
XY plane, X = xhat[u]*Z and Y = yhat[v]*Z, and takes the signed area of
every 2x2 pixel patch whose four corners are valid: the shoelace area of
the quad TL, TR, BR, BL. It sums those areas and scales the total by pi/4
to account for the roughly elliptical shape of potholes. Depth noise
moves a patch's corners both ways, so the signed sum averages it out,
where a sum of absolute areas would fold it into area. The paper also
keeps only patches inside the minimum bounding rectangle of the valid
points; every valid point lies in that rectangle by construction, so no
patch needs checking against it.

The sum is not taken patch by patch. A patch's shoelace area is the sum
of the cross products of its four edges, and an edge that two valid
patches share enters them with opposite signs, so the total is a
weighted sum of edge terms (``_edge_sum``). When every depth in a box is
valid, only the box's border edges keep a weight, so such a box costs a
min and a max; ``estimate_areas`` sums the four border lines of all of a
frame's such boxes at once, each line in its own ``reduceat`` segment. A
box whose valid patches have no positive signed total folds over, as
depth noise far above the pixel spacing can make it do: it is skipped
with ``FoldedRegion``.

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

import numpy as np

from .errors import AreatrackError, EmptyRegion, FoldedRegion, NoValidDepth, OversizedBox
from .geometry import BBox, CameraIntrinsics, DepthMap, as_xywh, pixel_grid

ELLIPSE_FACTOR = math.pi / 4.0


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
        return self.valid_patch_count / self.total_patch_count


def project_region(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> ProjectedRegion:
    """Back-project every integer pixel of the clipped box."""
    u0, u1, v0, v1 = pixel_grid(b, intr)
    if u0 >= u1 or v0 >= v1:
        raise EmptyRegion("the box covers no pixels")
    z = d.values[v0:v1, u0:u1]
    valid = np.isfinite(z) & (z > 0.0)
    Z = np.where(valid, z, np.nan).astype(np.float64)  # a signalling NaN would warn in the cast
    xhat, yhat = intr.ray(np.arange(u0, u1, dtype=np.float64), np.arange(v0, v1, dtype=np.float64))
    X, Y = xhat[None, :] * Z, yhat[:, None] * Z
    return ProjectedRegion(u0=u0, v0=v0, X=X, Y=Y, valid=valid)


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
    with np.errstate(invalid="ignore"):  # a signalling NaN warns in the cast; it is invalid depth
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


def _edge_sum(z: np.ndarray, ok: np.ndarray, xhat: np.ndarray, yhat: np.ndarray) -> float:
    """Twice the signed area of the patches of the (h, w) depth block ``z``
    that ``ok`` (h-1, w-1) marks, on the rays ``xhat`` (w) and ``yhat`` (h).

    Patch (i, j) is the quad of pixels (i, j), (i, j+1), (i+1, j+1),
    (i+1, j); twice its area is the sum of its edges' cross products.
    Horizontal edge (i, j)->(i, j+1) has the cross product
    yhat[i]*Z[i,j]*Z[i,j+1]*(xhat[j] - xhat[j+1]) and enters patch (i, j)
    forwards and patch (i-1, j) backwards: weight ok[i, j] - ok[i-1, j].
    Vertical edge (i, j)->(i+1, j) has xhat[j]*Z[i,j]*Z[i+1,j]*(yhat[i+1] -
    yhat[i]) and weight ok[i, j-1] - ok[i, j]. ``ok`` is 0 outside the
    block, and ``z`` holds 0 at each invalid depth, as its edges weigh 0.
    """
    Z = z.astype(np.float64)
    wh = np.zeros((Z.shape[0], Z.shape[1] - 1))
    wh[:-1] += ok
    wh[1:] -= ok
    wv = np.zeros((Z.shape[0] - 1, Z.shape[1]))
    wv[:, 1:] += ok
    wv[:, :-1] -= ok
    dx, dy = xhat[:-1] - xhat[1:], yhat[1:] - yhat[:-1]
    return float(yhat @ ((wh * Z[:, :-1] * Z[:, 1:]) @ dx) + (dy @ (wv * Z[:-1] * Z[1:])) @ xhat)


def _area(twice: float, count: int, total: int, dist: float) -> AreaEstimate | FoldedRegion:
    """The estimate whose ``count`` valid patches sum to ``twice`` their
    signed area, or the ``FoldedRegion`` that says why it has none."""
    area = 0.5 * twice * ELLIPSE_FACTOR
    if area <= 0.0:
        return FoldedRegion(f"the signed area of its {count} valid patches is not positive: "
                            "the back-projected box folds over")
    return AreaEstimate(area, count, total, dist)


def _measure(
    z: np.ndarray, xhat: np.ndarray, yhat: np.ndarray, dist: float
) -> AreaEstimate | NoValidDepth | FoldedRegion:
    """The estimate of the nonempty depth block ``z`` that is one pixel
    thin or holds an invalid depth, on the rays ``xhat`` and ``yhat``, at
    centre distance ``dist``, or the ``NoValidDepth`` or ``FoldedRegion``
    that says why it has none."""
    valid = np.isfinite(z) & (z > 0.0)
    ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    count = int(np.count_nonzero(ok))
    if count == 0:  # a one-pixel-thin box has no patch at all
        return NoValidDepth("the box has no 2x2 patch of valid depth")
    # zeroed before _edge_sum's cast, which a signalling NaN would make warn
    return _area(_edge_sum(np.where(valid, z, 0.0), ok, xhat, yhat), count, ok.size, dist)


def estimate_areas(
    boxes: np.ndarray, d: DepthMap, intr: CameraIntrinsics
) -> list[AreaEstimate | AreatrackError]:
    """Area estimates for every ``[x, y, w, h]`` row of ``boxes`` (N, 4) on
    one depth map, in row order.

    Each entry is what ``estimate_area`` returns for that box, or the
    ``OversizedBox``, ``EmptyRegion``, ``NoValidDepth`` or ``FoldedRegion``
    it raises, to the bit: no entry depends on the other rows. Every
    estimate has at least one valid patch.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    extents, dists = box_setup(boxes, d, intr)
    oversized = ((boxes[:, 2] > intr.width) | (boxes[:, 3] > intr.height)).tolist()
    xhat, yhat = _rays(intr)
    # each step table one longer than needed, so that a line's steps line up with its values
    dx, dy = np.append(xhat[:-1] - xhat[1:], 0.0), np.append(yhat[1:] - yhat[:-1], 0.0)
    out: list[AreaEstimate | AreatrackError] = []
    full, lines, steps, rays = [], [], [], []  # boxes whose depth is all valid, and their borders
    for big, (u0, v0, u1, v1), dist in zip(oversized, extents, dists):
        if big:
            out.append(OversizedBox(f"the box is larger than the {intr.width}x{intr.height} image"))
            continue
        z = d.values[v0:v1, u0:u1]
        if u0 >= u1 or v0 >= v1:
            out.append(EmptyRegion("the box covers no pixels"))
        elif isinstance(dist, NoValidDepth):
            out.append(dist)
        elif min(z.shape) < 2 or not (z.min() > 0.0 and z.max() < np.inf):  # NaN fails min > 0
            out.append(_measure(z, xhat[u0:u1], yhat[v0:v1], dist))
        else:  # every depth valid: the edges inside the block cancel, only its border is left
            full.append((len(out), (v1 - v0 - 1) * (u1 - u0 - 1), dist))
            out.append(None)
            lines += (z[0], z[-1], z[:, -1], z[:, 0])
            steps += (dx[u0:u1], dx[u0:u1], dy[v0:v1], dy[v0:v1])
            rays += (yhat[v0], -yhat[v1 - 1], xhat[u1 - 1], -xhat[u0])
    if full:
        # reduceat segments alternate: one line's n - 1 adjacent products, then
        # the product across its end, which is dropped. A segment holds only
        # its own line, so a box's bits do not depend on the boxes measured with it
        z = np.concatenate(lines, dtype=np.float64)
        prod = z[:-1] * z[1:] * np.concatenate(steps)[:-1]
        ends = np.cumsum([len(line) for line in lines])[:-1]
        cuts = np.empty(2 * len(lines) - 1, np.intp)
        cuts[0], cuts[1::2], cuts[2::2] = 0, ends - 1, ends
        t = np.array(rays) * np.add.reduceat(prod, cuts)[0::2]
        twice = (t[0::4] + t[1::4] + t[2::4] + t[3::4]).tolist()
        for (i, total, dist), s in zip(full, twice):
            out[i] = _area(s, total, total, dist)
    return out


def estimate_area(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> AreaEstimate:
    """Full area estimate for one detection box: its ``estimate_areas``
    entry, raised if it is a skip.

    Sums the signed areas of 2x2 patches whose four corners are valid,
    then applies the pi/4 ellipse factor. Raises ``OversizedBox`` when the
    box is wider or taller than the image, ``EmptyRegion`` when it covers
    no pixels, ``NoValidDepth`` when no 2x2 patch of it has valid depth and
    ``FoldedRegion`` when the signed sum is not positive.
    """
    (est,) = estimate_areas(as_xywh([b]), d, intr)
    if isinstance(est, Exception):
        raise est
    return est
