"""Multi-object tracking: camera-motion compensation, a constant-velocity
Kalman filter per track, two-stage IoU association with Hungarian
assignment, and track lifecycle management.

The live tracks are held as row-aligned arrays (``Tracks``), and each frame
is array work on them, not a loop per track or per pair: the tracks are
moved, predicted and updated in one batch, and one ``iou_matrix`` call per
frame gives the IoU of every track with every detection, which both
association stages slice. The filter is elementwise arithmetic on each
track's four 2x2 covariance blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import OutOfOrderFrame, TooFewCorrespondences
from .geometry import SINGULAR_DET, MotionTransform, iou_matrix


# ByteTrack's fixed association settings (Zhang et al., ECCV 2022)
HIGH_CONF_THRESHOLD = 0.5
# must stay above 0: a zero floor would let a zero-confidence detection match
# in stage 2, where its measurement noise cannot be formed
LOW_CONF_FLOOR = 0.1
IOU_GATE_STAGE1 = 0.3
IOU_GATE_STAGE2 = 0.5
MAX_MISSES = 30
# noise scales relative to box size (SORT-family heuristic)
POS_NOISE_SCALE = 0.05
VEL_NOISE_SCALE = 0.0125
RANSAC_ITERS = 100
RANSAC_INLIER_PX = 3.0
# a sample with computed |det A| > RANK_CERT * eps * ||A||_F^3 passes lstsq's
# rank rule without an SVD; see _full_rank for the bound
RANK_CERT = 128.0


@dataclass(frozen=True)
class Tracks:
    """The live tracks, one row each, oldest first: ids (N,), Kalman means
    (N, 8) over (cx, cy, w, h, vx, vy, vw, vh), covariances (N, 3, 4) and
    consecutive missed frames (N,).

    F, H, Q, R and the initial covariance tie each of cx, cy, w and h only
    to its own velocity, and motion compensation moves only the mean, so an
    8x8 covariance is four 2x2 blocks [[p, c], [c, v]], one per box entry,
    and 0 elsewhere. Its rows here are p, c and v of the four blocks."""

    ids: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    misses: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _noise_stds(w, h) -> np.ndarray:
    """Per-state-entry noise stds; ``w`` and ``h`` are scalars or (N,) arrays."""
    s, v = POS_NOISE_SCALE, VEL_NOISE_SCALE
    return np.stack([s * w, s * h, s * w, s * h, v * w, v * h, v * w, v * h], axis=-1)


def _measurements(xywh: np.ndarray) -> np.ndarray:
    """``[x, y, w, h]`` rows (K, 4) as ``[cx, cy, w, h]`` rows, rounded as
    ``BBox.cx`` and ``BBox.cy`` round."""
    x, y, w, h = xywh.T
    return np.column_stack([x + w / 2.0, y + h / 2.0, w, h])


def initiate(xywh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New tracks at ``[x, y, w, h]`` rows (K, 4), at rest: means (K, 8),
    covariance blocks (K, 3, 4)."""
    z = _measurements(xywh)
    mean = np.hstack([z, np.zeros_like(z)])
    std = _noise_stds(np.maximum(z[:, 2], 1.0), np.maximum(z[:, 3], 1.0))
    std[:, :4] *= 2.0
    std[:, 4:] *= 10.0
    var = np.square(std)
    return mean, np.stack([var[:, :4], np.zeros_like(z), var[:, 4:]], axis=1)


def predict(mean: np.ndarray, covariance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step for N tracks: means (N, 8) to ``F m`` and
    covariance blocks (N, 3, 4) to those of ``F P F^T + Q``.

    F adds each velocity to its position, so each block [[p, c], [c, v]]
    becomes [[(p + c) + (c + v), c + v], [c + v, v]] plus the diagonal Q.
    """
    w, h = np.maximum(mean[:, 2], 1.0), np.maximum(mean[:, 3], 1.0)
    q = np.square(_noise_stds(w, h))
    mean = mean.copy()
    mean[:, :4] += mean[:, 4:]
    p, c, v = covariance.transpose(1, 0, 2)
    cv = c + v
    return mean, np.stack([(p + c) + cv + q[:, :4], cv, v + q[:, 4:]], axis=1)


def kf_update(
    mean: np.ndarray, covariance: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear Kalman measurement update of N tracks on (cx, cy, w, h) rows
    ``z`` (N, 4); means (N, 8), covariance blocks (N, 3, 4).

    H keeps the positions, so each block's innovation variance is the
    scalar p + r and its gains are p / (p + r) for the position and
    c / (p + r) for the velocity. The new block is ``(I - K H) P``,
    symmetrised.
    """
    w, h = np.maximum(mean[:, 2], 1.0), np.maximum(mean[:, 3], 1.0)
    r = np.square(_noise_stds(w, h)[:, :4])
    p, c, v = covariance.transpose(1, 0, 2)
    # gains times the reciprocal round as OpenBLAS's np.linalg.solve of diagonal p + r does
    inv = 1.0 / (p + r)
    kp, kv = p * inv, c * inv
    innov = z - mean[:, :4]
    mean = np.hstack([mean[:, :4] + kp * innov, mean[:, 4:] + kv * innov])
    keep = 1.0 - kp
    return mean, np.stack([keep * p, 0.5 * (keep * c + (c - kv * p)), v - kv * c], axis=1)


def _sample_triples(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(k, 3) indices, each row a uniform random 3-subset of range(n), n >= 3.

    Floyd's algorithm (Bentley & Floyd, 1987) for three picks, run over
    all rows at once: a ~ U[0, n-2); b ~ U[0, n-1), or n-2 where b == a;
    c ~ U[0, n), or n-1 where c is a or b.
    """
    a, b, c = rng.integers(0, (n - 2, n - 1, n), size=(k, 3)).T
    b = np.where(b == a, n - 2, b)
    c = np.where((c == a) | (c == b), n - 1, c)
    return np.column_stack([a, b, c])


def _full_rank(A: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``ok`` and lstsq's default rank rule, s_min > 3 eps s_max, on (k, 3, 3)
    samples whose rows are ``[x, y, 1]``.

    s_min / s_max >= |det A| / ||A||_F^3, since |det A| = s_1 s_2 s_3 <=
    s_max^2 s_min and s_max <= ||A||_F. The determinant is the cross product
    a_x b_y - a_y b_x of the edges a, b from row 0, whose rounding is at most
    about 2 eps (|a_x b_y| + |a_y b_x|) <= 4 eps ||A||_F^2 <= 2.4 eps
    ||A||_F^3, as the ones column makes ||A||_F >= sqrt(3). LAPACK's singular
    values are off by at most p eps s_max with a small p, so with RANK_CERT =
    128 a sample whose computed |det| clears RANK_CERT eps ||A||_F^3 passes
    the rule for any p up to about 120. Only the other ``ok`` samples are
    decomposed; an overflowing ||A||_F^3 or determinant certifies nothing.
    """
    eps = np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = A[:, 1] - A[:, 0], A[:, 2] - A[:, 0]
        det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        certified = np.abs(det) > RANK_CERT * eps * np.einsum("kij,kij->k", A, A) ** 1.5
    passed = ok & certified
    doubt = ok & ~certified
    if doubt.any():
        s = np.linalg.svd(A[doubt], compute_uv=False)
        passed[doubt] = s[:, 2] > 3 * eps * s[:, 0]
    return passed


def fit_motion_ransac(correspondences: np.ndarray, seed: int = 0) -> MotionTransform:
    """RANSAC affine fit mapping first points onto second points.

    ``correspondences`` holds ``[[x0, y0], [x1, y1]]`` rows: the (n, 2, 2)
    array ``formats.parse_motion_file`` returns, or a list of point pairs.

    All ``RANSAC_ITERS`` 3-point hypotheses are drawn up front in one
    ``_sample_triples`` call from ``default_rng(seed)``, solved in one
    batch and scored against every pair at once; the first hypothesis with
    the most inliers wins. A hypothesis is skipped when a sample is not
    finite, when its samples are rank-deficient under ``lstsq``'s default
    rule (smallest singular value <= 3 eps times the largest), or when its
    2x2 linear part is singular. Non-finite pairs are never inliers.
    Refits on the inlier set with ``MotionTransform.fit``; falls back to
    identity when fewer than 3 inliers support any hypothesis or the refit
    fails.
    """
    pairs = np.asarray(correspondences, dtype=np.float64)
    n = len(pairs)
    if n < 3:
        raise TooFewCorrespondences(f"need >= 3 pairs, got {n}")
    src, dst = pairs[:, 0], pairs[:, 1]
    idx = _sample_triples(np.random.default_rng(seed), n, RANSAC_ITERS)
    # non-finite pairs are zeroed, so no LAPACK call sees them, and masked out
    finite = np.isfinite(pairs).all(axis=(1, 2))
    S = np.column_stack([np.where(finite[:, None], src, 0.0), np.ones(n)])
    D = np.where(finite[:, None], dst, 0.0)
    A = S[idx]  # (RANSAC_ITERS, 3, 3): one row [x, y, 1] per sample
    ok = _full_rank(A, finite[idx].all(axis=1))
    A[~ok] = np.eye(3)  # skipped hypotheses solve a placeholder system
    coef = np.linalg.solve(A, D[idx])  # (RANSAC_ITERS, 3, 2): rows a_x, a_y, t
    ok &= np.abs(coef[:, 0, 0] * coef[:, 1, 1] - coef[:, 1, 0] * coef[:, 0, 1]) > SINGULAR_DET
    dx = coef[:, :, 0] @ S.T - D[:, 0]  # (RANSAC_ITERS, n)
    dy = coef[:, :, 1] @ S.T - D[:, 1]
    dx *= dx
    dy *= dy
    dx += dy  # the squared residual
    # sqrt is correctly rounded and monotone and RANSAC_INLIER_PX**2 is exact, so this
    # decides every pair as sqrt(dx) < RANSAC_INLIER_PX would, NaN and inf included
    inliers = (dx < RANSAC_INLIER_PX**2) & finite
    counts = np.where(ok, inliers.sum(axis=1), 0)
    if counts.max() < 3:
        return MotionTransform.identity()
    best_inliers = inliers[np.argmax(counts)]  # the first with the most inliers
    fit = MotionTransform.fit(src[best_inliers], dst[best_inliers])
    return MotionTransform.identity() if fit is None else fit


def hungarian_solve(cost: np.ndarray) -> list[tuple[int, int]]:
    """Min-cost one-to-one assignment of min(N, M) pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("costs must be finite")
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


@dataclass
class AssociationResult:
    matches: list[tuple[int, int]] = field(default_factory=list)
    unmatched_tracks: list[int] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


def _match_stage(
    ious: np.ndarray, track_idx: np.ndarray, det_idx: np.ndarray, gate: float
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Hungarian matches between the rows ``track_idx`` and the columns
    ``det_idx`` of ``ious`` whose IoU reaches ``gate``, and the rows and
    columns left over, in their given order."""
    if not (len(track_idx) and len(det_idx)):
        return [], track_idx, det_idx
    cost = 1.0 - ious[track_idx][:, det_idx]
    pairs = [(i, j) for i, j in hungarian_solve(cost) if 1.0 - cost[i, j] >= gate]
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    free_t, free_d = np.ones(len(track_idx), bool), np.ones(len(det_idx), bool)
    free_t[i] = free_d[j] = False
    return list(zip(track_idx[i].tolist(), det_idx[j].tolist())), track_idx[free_t], det_idx[free_d]


def associate(
    track_xywh: np.ndarray, det_xywh: np.ndarray, confidence: np.ndarray
) -> AssociationResult:
    """Two-stage IoU association of track boxes with detection boxes, both
    ``[x, y, w, h]`` rows, (N, 4) and (M, 4), given the detections'
    confidences (M,).

    Stage 1 matches all tracks against high-confidence detections; stage 2
    lets remaining tracks pick up low-confidence detections (those between
    the floor and the high threshold) under the second gate. Detections
    below the floor are never matched. Both stages slice one IoU matrix.
    """
    ious = iou_matrix(track_xywh, det_xywh)
    high = np.flatnonzero(confidence >= HIGH_CONF_THRESHOLD)
    low = np.flatnonzero((confidence >= LOW_CONF_FLOOR) & (confidence < HIGH_CONF_THRESHOLD))
    all_tracks = np.arange(len(track_xywh))
    m1, rest_t, rest_high = _match_stage(ious, all_tracks, high, IOU_GATE_STAGE1)
    m2, rest_t, rest_low = _match_stage(ious, rest_t, low, IOU_GATE_STAGE2)
    return AssociationResult(
        matches=m1 + m2,
        unmatched_tracks=rest_t.tolist(),
        unmatched_detections=rest_high.tolist() + rest_low.tolist(),
    )


class Tracker:
    """Stateful per-sequence tracker. Single writer: one step() at a time."""

    def __init__(self):
        self.tracks = Tracks(
            np.zeros(0, np.int64), np.zeros((0, 8)), np.zeros((0, 3, 4)), np.zeros(0, np.int64)
        )
        self._next_id = 1
        self._last_frame: Optional[int] = None

    def step(
        self, det_xywh: np.ndarray, confidence: np.ndarray, frame: int,
        motion: Optional[MotionTransform] = None,
    ) -> list[tuple[int, int]]:
        """Process one frame's detections, given as ``[x, y, w, h]`` rows
        (M, 4) and confidences (M,); returns (track_id, row) for every
        detection row assigned to or spawning a track, by track id.

        Matched tracks are updated and unmatched ones age; a track missing
        more than ``MAX_MISSES`` frames in a row is dropped, and a track whose
        centre ``motion`` sends to infinity ends at once. Unmatched
        high-confidence detections start new tracks after the survivors.
        """
        if self._last_frame is not None and frame <= self._last_frame:
            raise OutOfOrderFrame(f"frame {frame} after {self._last_frame}")
        self._last_frame = frame
        tracks = self.tracks

        # move tracks into the current frame's pixel coordinates, then predict
        mean = tracks.mean
        if motion is not None:
            # motion maps previous-frame pixels to current-frame pixels, so
            # track centers are pushed forward through it; one stacked 3x3 @ 3
            # product per track, which rounds as MotionTransform.apply_point does
            pts = np.column_stack([mean[:, :2], np.ones(len(mean))])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                p = np.matmul(motion.m, pts[:, :, None])[:, :, 0]
                mean = np.column_stack([p[:, :2] / p[:, 2:], mean[:, 2:]])
        mean, cov = predict(mean, tracks.cov)

        # predicted boxes; each np.where keeps what max(0.0, size) keeps
        w = np.where(mean[:, 2] > 0.0, mean[:, 2], 0.0)
        h = np.where(mean[:, 3] > 0.0, mean[:, 3], 0.0)
        boxes = np.column_stack([mean[:, 0] - w / 2.0, mean[:, 1] - h / 2.0, w, h])
        result = associate(boxes, det_xywh, confidence)

        ti, dj = np.array(result.matches, dtype=np.intp).reshape(-1, 2).T
        mean[ti], cov[ti] = kf_update(mean[ti], cov[ti], _measurements(det_xywh[dj]))
        misses = tracks.misses + 1
        misses[ti] = 0
        # a centre sent to infinity has IoU 0 with every box, so it never matches again
        keep = (misses <= MAX_MISSES) & np.isfinite(mean[:, :2]).all(axis=1)

        born = [j for j in result.unmatched_detections if confidence[j] >= HIGH_CONF_THRESHOLD]
        born_ids = np.arange(self._next_id, self._next_id + len(born))
        self._next_id += len(born)
        born_mean, born_cov = initiate(det_xywh[born])
        self.tracks = Tracks(
            ids=np.concatenate([tracks.ids[keep], born_ids]),
            mean=np.concatenate([mean[keep], born_mean]),
            cov=np.concatenate([cov[keep], born_cov]),
            misses=np.concatenate([misses[keep], np.zeros(len(born), np.int64)]),
        )

        matched = [(int(tracks.ids[i]), j) for i, j in result.matches]
        return sorted(matched + list(zip(born_ids.tolist(), born)))
