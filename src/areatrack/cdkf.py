"""Per-track scalar Kalman smoothing of area measurements.

The area of one pothole is modeled as constant across frames. Measurement
noise adapts to how trustworthy each observation is: low detection
confidence and large camera distance both inflate R.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import Uninitialized, ZeroConfidence


class NoiseMode(enum.Enum):
    CONFIDENCE_ONLY = "confidence_only"
    DISTANCE_ONLY = "distance_only"
    COMBINED = "combined"


# Units: areas in m^2, so P/Q/R are m^4.
D0 = 5.0  # trusted distance, meters
Q = 1e-3  # process noise variance, m^4


@dataclass(frozen=True)
class CdkfConfig:
    """The tuned noise-model parameters."""

    lam: float = 1.0  # confidence weight (dimensionless)
    theta: float = 1.0  # distance weight (per meter)
    mode: NoiseMode = NoiseMode.COMBINED

    def __post_init__(self):
        if not (0 <= self.lam < math.inf and 0 <= self.theta < math.inf):
            raise ValueError(
                f"weights must be finite and nonnegative, got lam={self.lam} theta={self.theta}"
            )


@dataclass(frozen=True)
class CdkfState:
    A: float = 0.0  # area estimate, m^2
    P: float = 0.0  # estimate variance, m^4
    last_nis: float = 0.0
    updates: int = 0

    @property
    def initialized(self) -> bool:
        return self.updates > 0


def predict(s: CdkfState) -> CdkfState:
    """Constant-state prediction: A unchanged, P grows by Q."""
    if not s.initialized:
        raise Uninitialized("predict before first measurement")
    return CdkfState(s.A, s.P + Q, s.last_nis, s.updates)


def measurement_noise(c, d, cfg: CdkfConfig):
    """Adaptive measurement noise R(c, d), elementwise over arrays of
    confidences and distances.

    Raises ``ZeroConfidence`` naming the first confidence that is not
    positive.
    """
    c = np.asarray(c, dtype=np.float64)
    bad = np.flatnonzero(c <= 0.0)
    if bad.size:
        raise ZeroConfidence(f"confidence must be > 0, got {c.flat[bad[0]]}")
    if cfg.mode is NoiseMode.CONFIDENCE_ONLY:
        return cfg.lam / c
    dist_term = cfg.theta * np.maximum(d, D0)
    if cfg.mode is NoiseMode.DISTANCE_ONLY:
        return dist_term
    return cfg.lam / c + dist_term


def _gain_step(A, P, z, r):
    """Update prior (A, P) with measurement z of noise r, elementwise:
    the posterior A and P, and the NIS innovation^2 / (P + r)."""
    k = P / (P + r)
    innov = z - A
    nis = innov * innov / (P + r)
    return A + k * innov, (1.0 - k) * P, nis


def update(s: CdkfState, z: float, c: float, d: float, cfg: CdkfConfig) -> CdkfState:
    """Measurement update; the first-ever measurement initializes the state.

    last_nis records innovation^2 / (prior P + R) for filter-consistency
    monitoring.
    """
    r = float(measurement_noise(c, d, cfg))
    if not s.initialized:
        return CdkfState(A=z, P=r, last_nis=0.0, updates=1)
    A, P, nis = _gain_step(s.A, s.P, z, r)
    return CdkfState(A=A, P=P, last_nis=nis, updates=s.updates + 1)


def filter_tracks(z, c, d, track_ids, cfg: CdkfConfig) -> tuple[np.ndarray, np.ndarray]:
    """The smoothed area and NIS after every measurement, each track
    filtered on its own in input order, as ``predict`` then ``update`` do.

    ``z``, ``c``, ``d`` and ``track_ids`` hold one entry per measurement.
    Step j updates the tracks with more than j measurements at once. The
    tracks are laid out longest first, so these are a prefix of the state
    arrays, and each measurement sees the scalar filter's float64
    operations in the same order. Once a step updates only the longest
    track, the rest of that track runs the same arithmetic on Python
    floats, without numpy's per-call cost.
    """
    r = measurement_noise(c, d, cfg)
    n = len(r)
    if n == 0:
        return np.zeros(0), np.zeros(0)
    order = np.argsort(track_ids, kind="stable")
    ids = np.asarray(track_ids)[order]
    new_track = np.r_[True, ids[1:] != ids[:-1]]
    track = np.cumsum(new_track) - 1
    starts = np.flatnonzero(new_track)
    rank = np.arange(n) - starts[track]  # earlier measurements of the track of order[i]
    lengths = np.diff(np.r_[starts, n])
    column = np.empty_like(lengths)
    column[np.argsort(-lengths, kind="stable")] = np.arange(len(lengths))
    # step by step, and by column within a step: step j is the j-th
    # measurement of columns 0 .. counts[j] - 1
    packed = order[np.lexsort((column[track], rank))]
    counts = np.bincount(rank)
    z = np.asarray(z, dtype=np.float64)[packed]
    r = r[packed]
    A, nis = z.copy(), np.zeros(n)  # a first measurement sets A = z, P = r
    P = r[: counts[0]].copy()
    ends = np.cumsum(counts).tolist()
    wide = max(1, int(np.count_nonzero(counts > 1)))  # steps 1 .. wide - 1 update several tracks
    prior = 0
    for lo, m in zip(ends[: wide - 1], counts[1:wide].tolist()):
        step = slice(lo, lo + m)
        A[step], P[:m], nis[step] = _gain_step(A[prior : prior + m], P[:m] + Q, z[step], r[step])
        prior = lo
    tail = slice(ends[wide - 1], n)
    a, p, tail_a, tail_nis = float(A[prior]), float(P[0]), [], []
    for zi, ri in zip(z[tail].tolist(), r[tail].tolist()):
        a, p, ni = _gain_step(a, p + Q, zi, ri)
        tail_a.append(a)
        tail_nis.append(ni)
    A[tail], nis[tail] = tail_a, tail_nis
    out = np.empty((2, n))
    out[:, packed] = A, nis
    return out[0], out[1]
