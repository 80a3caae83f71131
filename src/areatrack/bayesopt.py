"""Gaussian-process Bayesian optimization with expected improvement.

Tunes the (confidence weight, distance weight) pair of the area smoother
by minimizing the combined objective J over ``BOUNDS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.special import ndtr
from scipy.stats import qmc

from .errors import DegenerateKernel, ObjectiveNonFinite

BOUNDS = ((0.0, 2.0), (0.0, 2.0))  # the (lambda, theta) search box
LOCAL_SIGMA = 0.02  # spread, in the unit box, of the local EI batch around the top two candidates


@dataclass(frozen=True)
class SearchSpec:
    n_init: int = 5
    n_iter: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")


@dataclass
class OptResult:
    best_point: tuple[float, ...]
    best_value: float
    history: list[tuple[tuple[float, ...], float]]


# ---------------------------------------------------------------------------
# Gaussian process with Matern-5/2 kernel

_JITTER = 1e-6
_VAR_FLOOR = 1e-12  # posterior variance clamp, before un-standardizing
_LENGTH_SCALES = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)


def _matern52(dist: np.ndarray, ls: float) -> np.ndarray:
    r = np.sqrt(5.0) * dist / ls
    return (1.0 + r + r * r / 3.0) * np.exp(-r)


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The Euclidean distance between each row of A and each row of B.

    Below 8 coordinates this is ``np.linalg.norm(A[:, None] - B[None],
    axis=2)`` bit for bit, as both sum the squares in coordinate order,
    but it builds no (len(A), len(B), d) difference array, which made the
    norm about 5x slower on the tuner's 512 candidates.
    """
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points have {A.shape[1]} coordinates, expected {B.shape[1]}")
    total = np.zeros((len(A), len(B)))
    for a, b in zip(A.T, B.T):
        d = a[:, None] - b
        total += d * d
    return np.sqrt(total)


class GpPosterior:
    """Zero-mean GP fitted on (possibly standardized) observations."""

    def __init__(self, X: np.ndarray, alpha: np.ndarray, chol: np.ndarray,
                 ls: float, signal_var: float, y_mean: float, y_scale: float):
        self.X = X
        self._alpha = alpha
        self._chol = chol
        self.length_scale = ls
        self.signal_var = signal_var
        self._y_mean = y_mean
        self._y_scale = y_scale

    def mean_var(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        dist = _distances(Xq, self.X)
        k = self.signal_var * _matern52(dist, self.length_scale)
        mu = k @ self._alpha
        # both operands are finite by construction; the check costs ~8% of the tuner
        w = solve_triangular(self._chol, k.T, lower=True, check_finite=False)
        var = self.signal_var + _JITTER - np.sum(w * w, axis=0)
        var = np.maximum(var, _VAR_FLOOR)
        return self._y_mean + self._y_scale * mu, (self._y_scale ** 2) * var


def gp_fit(points: Sequence[Sequence[float]], values: Sequence[float]) -> GpPosterior:
    """Fit by maximum marginal likelihood over a small length-scale grid.

    Signal variance has a closed-form ML solution per length scale.
    Observations are standardized internally; callers should pass inputs
    already scaled to roughly the unit box. Raises ``ValueError`` for a
    point or value that is not finite.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("gp_fit needs finite points and values")
    # an absolute tolerance: allclose's relative one would tell points apart by where they lie
    if n > 1 and (np.abs(X - X[0]) <= 1e-12).all():
        raise DegenerateKernel("all training points identical")
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    ys = (y - y_mean) / y_scale
    dist = _distances(X, X)
    jitter = _JITTER * np.eye(n)

    best = None
    for ls in _LENGTH_SCALES:
        M = _matern52(dist, ls)
        try:
            L = np.linalg.cholesky(M + jitter)
        except np.linalg.LinAlgError:
            continue
        # cho_solve's own LAPACK call, without its finiteness checks
        a, _ = dpotrs(L, ys, lower=True)
        s2 = float(ys @ a) / n
        s2 = max(s2, 1e-10)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        # log marginal likelihood up to constants, profiled over signal var
        nll = 0.5 * n * math.log(s2) + 0.5 * logdet
        if best is None or nll < best[0]:
            best = (nll, ls, s2, M)
    if best is None:
        raise DegenerateKernel("no valid kernel on the length-scale grid")
    _, ls, s2, M = best
    L = np.linalg.cholesky(s2 * M + jitter)
    alpha, _ = dpotrs(L, ys, lower=True)
    return GpPosterior(X, alpha, L, ls, s2, y_mean, y_scale)


def expected_improvement(gp: GpPosterior, incumbent: float, candidate: np.ndarray) -> np.ndarray:
    """EI for minimization; 0 where the posterior is certain."""
    mu, var = gp.mean_var(np.atleast_2d(candidate))
    sigma = np.sqrt(var)
    out = np.zeros_like(mu)
    ok = sigma > 1e-12
    z = (incumbent - mu[ok]) / sigma[ok]
    # norm.cdf/norm.pdf's own formulas, without scipy.stats' per-call overhead
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
    out[ok] = (incumbent - mu[ok]) * ndtr(z) + sigma[ok] * pdf
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# optimizer loop


def optimize(objective: Callable[[tuple[float, ...]], float], spec: SearchSpec) -> OptResult:
    """Seeded quasi-random initialization followed by GP/EI iterations.

    Deterministic for a fixed seed: identical history point for point.
    """
    lo, hi = np.array(BOUNDS).T
    span = hi - lo
    dim = len(BOUNDS)
    rng = np.random.default_rng(spec.seed)
    history: list[tuple[tuple[float, ...], float]] = []
    X_unit: list[np.ndarray] = []
    y: list[float] = []

    def evaluate(unit: np.ndarray) -> float:
        pt = tuple((lo + unit * span).tolist())
        val = float(objective(pt))
        if not math.isfinite(val):
            raise ObjectiveNonFinite(pt, val)
        X_unit.append(unit)
        y.append(val)
        history.append((pt, val))
        return val

    sobol = qmc.Sobol(d=dim, scramble=True, seed=spec.seed)
    n_pow2 = 1 << (spec.n_init - 1).bit_length()
    for unit in sobol.random(n_pow2)[: spec.n_init]:
        evaluate(np.asarray(unit))

    for _ in range(spec.n_iter):
        incumbent = min(y)
        try:
            gp = gp_fit(np.array(X_unit), np.array(y))
        except DegenerateKernel:
            evaluate(rng.uniform(0.0, 1.0, size=dim))
            continue
        cands = rng.uniform(0.0, 1.0, size=(512, dim))
        ei = expected_improvement(gp, incumbent, cands)
        # a second batch around the two strongest candidates
        top = cands[np.argsort(-ei)[:2]]
        local = np.clip(top[:, None, :] + rng.normal(0.0, LOCAL_SIGMA, size=(2, 32, dim)), 0.0, 1.0)
        cands = np.concatenate([cands, local.reshape(-1, dim)])
        ei = np.concatenate([ei, expected_improvement(gp, incumbent, cands[512:])])
        best = int(np.argmax(ei))
        best_unit, best_ei = cands[best], ei[best]
        if best_ei <= 1e-14:
            best_unit = rng.uniform(0.0, 1.0, size=dim)
        evaluate(best_unit)

    best_idx = int(np.argmin(y))
    return OptResult(
        best_point=history[best_idx][0],
        best_value=history[best_idx][1],
        history=history,
    )
