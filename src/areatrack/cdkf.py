"""Per-track scalar Kalman smoothing of area measurements.

The area of one pothole is modeled as constant across frames. Measurement
noise adapts to how trustworthy each observation is: low detection
confidence and large camera distance both inflate R.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
        if self.lam < 0 or self.theta < 0:
            raise ValueError("weights must be nonnegative")


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


def measurement_noise(c: float, d: float, cfg: CdkfConfig) -> float:
    """Adaptive measurement noise R(c, d)."""
    if c <= 0.0:
        raise ZeroConfidence(f"confidence must be > 0, got {c}")
    conf_term = cfg.lam / c
    dist_term = cfg.theta * max(d, D0)
    if cfg.mode is NoiseMode.CONFIDENCE_ONLY:
        return conf_term
    if cfg.mode is NoiseMode.DISTANCE_ONLY:
        return dist_term
    return conf_term + dist_term


def update(s: CdkfState, z: float, c: float, d: float, cfg: CdkfConfig) -> CdkfState:
    """Measurement update; the first-ever measurement initializes the state.

    last_nis records innovation^2 / (prior P + R) for filter-consistency
    monitoring.
    """
    r = measurement_noise(c, d, cfg)
    if not s.initialized:
        return CdkfState(A=z, P=r, last_nis=0.0, updates=1)
    k = s.P / (s.P + r)
    innov = z - s.A
    nis = innov * innov / (s.P + r)
    return CdkfState(
        A=s.A + k * innov,
        P=(1.0 - k) * s.P,
        last_nis=nis,
        updates=s.updates + 1,
    )
