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


def _gain_step(a, p, z, r):
    """Update prior (a, p) with measurement z of noise r: the posterior
    area and variance, and the NIS innovation^2 / (p + r)."""
    k = p / (p + r)
    innov = z - a
    nis = innov * innov / (p + r)
    return a + k * innov, (1.0 - k) * p, nis


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


def track_rows(track_ids) -> list[list[int]]:
    """Each track's row indices in row order, tracks in order of their first row."""
    rows_by_track: dict = {}
    for i, t in enumerate(track_ids):
        rows_by_track.setdefault(t, []).append(i)
    return list(rows_by_track.values())


def filter_tracks(z, c, d, tracks, cfg: CdkfConfig) -> tuple[list[float], list[float]]:
    """The smoothed area and NIS after every measurement, each track
    filtered on its own in input order, as ``predict`` then ``update`` do.

    ``z``, ``c`` and ``d`` hold one entry per measurement, and ``tracks``
    each track's row indices in row order, as ``track_rows`` gives them;
    a track's first measurement sets A = z and P = R. ``measurement_noise``
    runs over all of them first, so a bad confidence stops the pass
    before any step. Each track's rows run ``_gain_step``'s float
    operations in order, as one loop over locals.
    """
    r = measurement_noise(c, d, cfg).tolist()
    z = np.asarray(z, dtype=np.float64).tolist()
    areas, nis = z[:], [0.0] * len(z)
    for rows in tracks:
        a, p = z[rows[0]], r[rows[0]]
        for i in rows[1:]:
            p += Q
            s = p + r[i]
            k = p / s
            innov = z[i] - a
            nis[i] = innov * innov / s
            areas[i] = a = a + k * innov
            p = (1.0 - k) * p
    return areas, nis
