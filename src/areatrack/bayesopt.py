"""Gaussian-process Bayesian optimization with expected improvement.

Tunes the (confidence weight, distance weight) pair of the area smoother
by minimizing the combined objective J over ``BOUNDS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import blas, solve_triangular
from scipy.optimize import minimize
from scipy.special import ndtr
from scipy.stats import qmc

from .errors import DegenerateKernel, ObjectiveNonFinite

BOUNDS = ((0.0, 2.0), (0.0, 2.0))  # the (lambda, theta) search box
REFINE_GTOL = 1e-5  # projected-gradient tolerance of the L-BFGS-B refinement of EI


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
        dist = np.linalg.norm(Xq[:, None, :] - self.X[None, :, :], axis=2)
        k = self.signal_var * _matern52(dist, self.length_scale)
        mu = k @ self._alpha
        # both operands are finite by construction; the check costs ~8% of the tuner
        w = solve_triangular(self._chol, k.T, lower=True, check_finite=False)
        var = self.signal_var + _JITTER - np.sum(w * w, axis=0)
        var = np.maximum(var, _VAR_FLOOR)
        return self._y_mean + self._y_scale * mu, (self._y_scale ** 2) * var

    def mean_var_grad(self, u: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """``mean_var`` at the single point ``u``, with the gradients of the
        mean and the variance in ``u``; the variance's is 0 where its clamp
        applies."""
        ls, s2 = self.length_scale, self.signal_var
        diff = u - self.X
        r = np.sqrt(5.0) * np.sqrt((diff * diff).sum(axis=1)) / ls
        e = np.exp(-r)
        k = s2 * ((1.0 + r + r * r / 3.0) * e)
        # dk/du = -s2 * 5 / (3 ls^2) * (1 + r) * e^-r * (u - x_i), finite at r = 0
        dk = (-s2 * 5.0 / (3.0 * ls * ls) * (1.0 + r) * e)[:, None] * diff
        # the transposed factor is F-ordered, so BLAS takes it without a copy:
        # w = L^-1 k solves U^T w = k, and L^-T w solves U v = w
        upper = self._chol.T
        w = blas.dtrsv(upper, k, lower=0, trans=1)
        var = s2 + _JITTER - float((w * w).sum())  # mean_var's sum, so the same bits
        if var > _VAR_FLOOR:
            dvar = -2.0 * (blas.dtrsv(upper, w, lower=0, trans=0) @ dk)
        else:
            var, dvar = _VAR_FLOOR, np.zeros(len(u))
        scale = self._y_scale
        mu = self._y_mean + scale * float(k @ self._alpha)
        return mu, scale * scale * var, scale * (self._alpha @ dk), scale * scale * dvar


def gp_fit(points: Sequence[Sequence[float]], values: Sequence[float]) -> GpPosterior:
    """Fit by maximum marginal likelihood over a small length-scale grid.

    Signal variance has a closed-form ML solution per length scale.
    Observations are standardized internally; callers should pass inputs
    already scaled to roughly the unit box.
    """
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    if n > 1 and np.allclose(X, X[0], atol=1e-12):
        raise DegenerateKernel("all training points identical")
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    ys = (y - y_mean) / y_scale
    dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)

    best = None
    for ls in _LENGTH_SCALES:
        K0 = _matern52(dist, ls) + _JITTER * np.eye(n)
        try:
            L = np.linalg.cholesky(K0)
        except np.linalg.LinAlgError:
            continue
        a = np.linalg.solve(K0, ys)
        s2 = float(ys @ a) / n
        s2 = max(s2, 1e-10)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        # log marginal likelihood up to constants, profiled over signal var
        nll = 0.5 * n * math.log(s2) + 0.5 * logdet
        if best is None or nll < best[0]:
            best = (nll, ls, s2)
    if best is None:
        raise DegenerateKernel("no valid kernel on the length-scale grid")
    _, ls, s2 = best
    K = s2 * _matern52(dist, ls) + _JITTER * np.eye(n)
    L = np.linalg.cholesky(K)
    alpha = np.linalg.solve(K, ys)
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


def neg_ei_and_grad(gp: GpPosterior, incumbent: float, u: np.ndarray) -> tuple[float, np.ndarray]:
    """-EI at the single point ``u`` and its gradient in closed form
    (Jones, Schonlau & Welch, 1998): dEI = -cdf(z) dmu + pdf(z) dsigma.

    The value is ``expected_improvement``'s, to rounding. Where EI is
    clamped to 0, so is the gradient.
    """
    mu, var, dmu, dvar = gp.mean_var_grad(u)
    sigma = math.sqrt(var)
    if sigma <= 1e-12:
        return 0.0, np.zeros(len(u))
    gain = incumbent - mu
    z = gain / sigma
    cdf = float(ndtr(z))
    pdf = math.exp(-z * z / 2.0) / math.sqrt(2 * math.pi)
    ei = gain * cdf + sigma * pdf
    if not ei > 0.0:
        return 0.0, np.zeros(len(u))
    return -ei, cdf * dmu - pdf / (2.0 * sigma) * dvar


def _refine(gp: GpPosterior, incumbent: float, start: np.ndarray) -> tuple[np.ndarray, float]:
    """L-BFGS-B on -EI over the unit box from ``start``: the point it ends
    at and its -EI.

    A start whose projected gradient is within ``REFINE_GTOL`` is returned
    as it is, without the scipy call, as L-BFGS-B would stop there at
    iteration 0. The projection is L-BFGS-B's own (``projgr``).
    """
    fun, grad = neg_ei_and_grad(gp, incumbent, start)
    projected = np.where(grad < 0.0, np.maximum(start - 1.0, grad), np.minimum(start, grad))
    if np.max(np.abs(projected)) <= REFINE_GTOL:
        return start, fun
    res = minimize(
        partial(neg_ei_and_grad, gp, incumbent),
        start,
        jac=True,
        bounds=[(0.0, 1.0)] * len(start),
        method="L-BFGS-B",
        options={"maxiter": 15, "gtol": REFINE_GTOL},
    )
    return res.x, float(res.fun)


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
        order = np.argsort(-ei)
        best_unit = cands[order[0]]
        best_ei = ei[order[0]]
        # local refinement from the strongest candidates
        for i in order[:2]:
            x, fun = _refine(gp, incumbent, cands[i])
            if -fun > best_ei:
                best_ei = -fun
                best_unit = np.clip(x, 0.0, 1.0)
        if best_ei <= 1e-14:
            best_unit = rng.uniform(0.0, 1.0, size=dim)
        evaluate(best_unit)

    best_idx = int(np.argmin(y))
    return OptResult(
        best_point=history[best_idx][0],
        best_value=history[best_idx][1],
        history=history,
    )
