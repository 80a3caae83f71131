"""Shared domain types: camera model, depth maps, boxes, motion transforms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import SingularTransform


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera parameters, all in pixel units."""

    f_u: float
    f_v: float
    p_u: float
    p_v: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.f_u < math.inf and 0 < self.f_v < math.inf):
            raise ValueError(
                f"focal lengths must be positive and finite, got f_u={self.f_u} f_v={self.f_v}"
            )
        if not (0 <= self.p_u < self.width and 0 <= self.p_v < self.height):
            raise ValueError("principal point must lie inside the image")

    def ray(self, u, v):
        """Pixel (u, v) to (x, y) with the point (x*Z, y*Z, Z) at depth Z; elementwise."""
        return (u - self.p_u) / self.f_u, (v - self.p_v) / self.f_v

    def pixel(self, x, y, z):
        """Camera-frame point (x, y, z) to its pixel (u, v), the inverse of ``ray``."""
        return self.f_u * x / z + self.p_u, self.f_v * y / z + self.p_v


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in continuous pixel coordinates (corner form)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        finite = math.isfinite
        if not (finite(self.x) and finite(self.y) and finite(self.w) and finite(self.h)):
            raise ValueError(
                f"box fields must be finite, got x={self.x} y={self.y} w={self.w} h={self.h}"
            )
        if self.w < 0 or self.h < 0:
            raise ValueError("box size must be nonnegative")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Detection:
    """One detector output: box, score, class (0 = pothole, 1 = manhole)."""

    bbox: BBox
    confidence: float
    class_id: int
    frame: int

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


class DepthMap:
    """Dense per-pixel metric depth for one frame, row-major.

    Non-finite or non-positive entries are allowed and treated as invalid;
    callers decide how to skip them.
    """

    def __init__(self, width: int, height: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.float32)
        if values.size != width * height:
            raise ValueError(
                f"expected {width * height} values, got {values.size}"
            )
        self.width = int(width)
        self.height = int(height)
        self.values = values.reshape(height, width)
        self.values.setflags(write=False)


# a transform whose 2x2 linear part has |determinant| at or below this is singular
SINGULAR_DET = 1e-9


@dataclass(frozen=True)
class MotionTransform:
    """3x3 homogeneous 2D transform between consecutive frames (pixel units)."""

    m: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("transform must be 3x3")
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) <= SINGULAR_DET:
            raise SingularTransform("upper-left 2x2 block is singular")
        object.__setattr__(self, "m", m)

    @classmethod
    def fit(cls, src: np.ndarray, dst: np.ndarray) -> Optional["MotionTransform"]:
        """Least-squares affine map taking (n, 2) points ``src`` onto ``dst``; None
        when ``src`` is rank-deficient for ``lstsq`` or the 2x2 part is singular."""
        A = np.column_stack([src, np.ones(len(src))])
        try:
            coef, _, rank, _ = np.linalg.lstsq(A, dst, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if rank < 3:
            return None
        m = np.eye(3)
        m[:2, :2] = coef[:2].T
        m[:2, 2] = coef[2]
        try:
            return cls(m)
        except SingularTransform:
            return None

    @classmethod
    def identity(cls) -> "MotionTransform":
        return cls(np.eye(3))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "MotionTransform":
        m = np.eye(3)
        m[0, 2] = tx
        m[1, 2] = ty
        return cls(m)

    def apply_point(self, x: float, y: float) -> tuple[float, float]:
        p = self.m @ np.array([x, y, 1.0])
        return float(p[0] / p[2]), float(p[1] / p[2])


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the union is degenerate."""
    ix = max(0.0, min(a.right, b.right) - max(a.x, b.x))
    iy = max(0.0, min(a.bottom, b.bottom) - max(a.y, b.y))
    # clamped: for tiny boxes, cancellation in min(right) - max(x) can
    # exceed either box's own extent
    inter = min(ix * iy, a.area, b.area)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def as_xywh(boxes: Iterable[BBox]) -> np.ndarray:
    """Boxes as an (N, 4) float64 array of ``[x, y, w, h]`` rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every ``[x, y, w, h]`` row of ``a`` (N, 4) with every row of
    ``b`` (M, 4), as an (N, M) array.

    Entry (i, j) equals ``iou`` of the two boxes bit for bit: the float64
    operations are the same and in the same order, and each ``np.where``
    keeps the operand that Python's ``min`` or ``max`` would keep.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ax, ay, aw, ah = (a[:, k, None] for k in range(4))
    bx, by, bw, bh = b.T
    # like the scalar, huge finite boxes overflow to inf or NaN without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        ar, ab, br, bb = ax + aw, ay + ah, bx + bw, by + bh
        ix = np.where(br < ar, br, ar) - np.where(bx > ax, bx, ax)
        iy = np.where(bb < ab, bb, ab) - np.where(by > ay, by, ay)
        ix = np.where(ix > 0.0, ix, 0.0)
        iy = np.where(iy > 0.0, iy, 0.0)
        area_a, area_b = aw * ah, bw * bh
        inter = ix * iy
        inter = np.where(area_a < inter, area_a, inter)
        inter = np.where(area_b < inter, area_b, inter)
        union = area_a + area_b - inter
        return np.divide(inter, union, out=np.zeros_like(union), where=~(union <= 0.0))


def pixel_grid(b: BBox, intr: CameraIntrinsics) -> tuple[int, int, int, int]:
    """Integer pixel extent (u0, u1, v0, v1) covered by a box, half-open.

    Left/top are floored, right/bottom are ceiled, then clipped to valid
    pixel indices. Returns an empty range (u0 >= u1 or v0 >= v1) when the
    box misses the image.
    """
    u0 = max(0, int(math.floor(b.x)))
    v0 = max(0, int(math.floor(b.y)))
    u1 = min(intr.width, int(math.ceil(b.right)))
    v1 = min(intr.height, int(math.ceil(b.bottom)))
    return u0, u1, v0, v1
