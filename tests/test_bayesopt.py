import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

from areatrack import bayesopt
from areatrack.bayesopt import (
    OptResult,
    SearchSpec,
    expected_improvement,
    gp_fit,
    optimize,
)
from areatrack.errors import DegenerateKernel, ObjectiveNonFinite


def quadratic(center):
    def f(p):
        return sum((x - c) ** 2 for x, c in zip(p, center))

    return f


class TestGp:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (12, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        gp = gp_fit(X, y)
        mu, var = gp.mean_var(X)
        assert np.allclose(mu, y, atol=1e-4)
        assert np.all(var < 1e-3)

    def test_reverts_to_mean_far_away(self):
        X = np.array([[0.1, 0.1], [0.2, 0.15], [0.15, 0.3]])
        y = np.array([1.0, 2.0, 3.0])
        gp = gp_fit(X, y)
        mu, var = gp.mean_var(np.array([[50.0, 50.0]]))
        assert mu[0] == pytest.approx(np.mean(y), abs=1e-3)
        assert var[0] > 0.5 * gp.signal_var * np.var(y)

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateKernel):
            gp_fit([[0.5, 0.5], [0.5, 0.5]], [1.0, 2.0])

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (20, 2))
        y = rng.normal(size=20)
        gp = gp_fit(X, y)
        _, var = gp.mean_var(rng.uniform(-1, 2, (100, 2)))
        assert np.all(var >= 0.0)

    def test_alpha_solves_the_system_at_the_largest_length_scale(self):
        # a plane is smooth enough that the likelihood picks the longest
        # scale, where K is worst conditioned (about 3e6 here)
        X = np.random.default_rng(1).uniform(0, 1, (12, 2))
        y = X[:, 0] + 0.5 * X[:, 1]
        gp = gp_fit(X, y)
        assert gp.length_scale == bayesopt._LENGTH_SCALES[-1]
        dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        K = gp.signal_var * bayesopt._matern52(dist, gp.length_scale) + bayesopt._JITTER * np.eye(len(y))
        ys = (y - y.mean()) / y.std()
        residual = np.linalg.norm(K @ gp._alpha - ys)
        assert residual <= 1e-13 * np.linalg.norm(K, 2) * np.linalg.norm(gp._alpha)


def reference_gp_fit(points, values):
    """``gp_fit`` as first written: each kernel rebuilt with its own jitter
    matrix, the chosen one recomputed, and ``cho_solve`` with its checks."""
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64)
    n = len(y)
    y_mean, y_scale = float(y.mean()), float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    ys = (y - y_mean) / y_scale
    dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    best = None
    for ls in bayesopt._LENGTH_SCALES:
        L = np.linalg.cholesky(bayesopt._matern52(dist, ls) + bayesopt._JITTER * np.eye(n))
        a = cho_solve((L, True), ys)
        s2 = max(float(ys @ a) / n, 1e-10)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        nll = 0.5 * n * math.log(s2) + 0.5 * logdet
        if best is None or nll < best[0]:
            best = (nll, ls, s2)
    _, ls, s2 = best
    L = np.linalg.cholesky(s2 * bayesopt._matern52(dist, ls) + bayesopt._JITTER * np.eye(n))
    return bayesopt.GpPosterior(X, cho_solve((L, True), ys), L, ls, s2, y_mean, y_scale)


def _smooth(X):
    return np.sin(3 * X[:, 0]) + X[:, 1] ** 2


def _oracle_sets():
    """(points, values) sets of 5, 20 and 34 points and the plane on which
    the grid picks its longest scale, 1.6."""
    rng = np.random.default_rng(7)
    X5, X20, X34 = (rng.uniform(0, 1, (n, 2)) for n in (5, 20, 34))
    plane = np.random.default_rng(1).uniform(0, 1, (12, 2))
    return {
        "n5": (X5, _smooth(X5)),
        "n20": (X20, rng.normal(size=20)),
        "n34": (X34, _smooth(X34)),
        "plane": (plane, plane[:, 0] + 0.5 * plane[:, 1]),
    }


class TestGpFitOracle:
    @pytest.mark.parametrize("name", sorted(_oracle_sets()))
    def test_same_bits_as_reference(self, name):
        X, y = _oracle_sets()[name]
        got, want = gp_fit(X, y), reference_gp_fit(X, y)
        assert got._alpha.tobytes() == want._alpha.tobytes()
        assert got._chol.tobytes() == want._chol.tobytes()
        assert np.float64(got.length_scale).tobytes() == np.float64(want.length_scale).tobytes()
        assert (got.signal_var, got._y_mean, got._y_scale) == (
            want.signal_var, want._y_mean, want._y_scale)

    def test_sets_span_the_grid(self):
        picked = {gp_fit(X, y).length_scale for X, y in _oracle_sets().values()}
        assert bayesopt._LENGTH_SCALES[-1] in picked and len(picked) >= 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_value_or_point_rejected(self, bad):
        X = np.random.default_rng(0).uniform(0, 1, (6, 2))
        y = _smooth(X)
        y_bad, X_bad = y.copy(), X.copy()
        y_bad[3] = bad
        X_bad[2, 1] = bad
        for points, values in ((X, y_bad), (X_bad, y)):
            with pytest.raises(ValueError, match="^gp_fit needs finite points and values$"):
                gp_fit(points, values)


class TestDistances:
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_same_bits_as_norm(self, dim):
        rng = np.random.default_rng(dim)
        for m, n, scale in ((1, 1, 1.0), (512, 20, 1.0), (64, 34, 1e-4), (7, 3, 1e150)):
            A = scale * rng.uniform(-1, 1, (m, dim))
            B = rng.uniform(-1, 1, (n, dim))
            want = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
            assert bayesopt._distances(A, B).tobytes() == want.tobytes()

    def test_coordinate_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^points have 1 coordinates, expected 2$"):
            bayesopt._distances(np.zeros((3, 1)), np.zeros((4, 2)))


class TestExpectedImprovement:
    def test_certain_point_zero(self):
        X = np.array([[0.2, 0.2], [0.8, 0.8], [0.4, 0.6]])
        y = np.array([1.0, 2.0, 1.5])
        gp = gp_fit(X, y)
        ei = expected_improvement(gp, incumbent=1.0, candidate=X[:1])
        assert ei[0] == pytest.approx(0.0, abs=1e-3)

    def test_gaussian_identity_at_mean(self):
        # when the posterior mean equals the incumbent, EI = sigma * pdf(0)
        class Fake:
            def mean_var(self, Xq):
                n = len(np.atleast_2d(Xq))
                return np.full(n, 2.0), np.full(n, 4.0)

        ei = expected_improvement(Fake(), incumbent=2.0, candidate=np.zeros((1, 2)))
        assert ei[0] == pytest.approx(2.0 / math.sqrt(2 * math.pi))
        assert ei[0] == pytest.approx(2.0 * 0.3989422804014327)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (10, 2))
        y = rng.normal(size=10)
        gp = gp_fit(X, y)
        ei = expected_improvement(gp, incumbent=float(y.min()), candidate=rng.uniform(0, 1, (200, 2)))
        assert np.all(ei >= 0.0)

    def test_increases_with_uncertainty(self):
        class Fake:
            def __init__(self, var):
                self.var = var

            def mean_var(self, Xq):
                n = len(np.atleast_2d(Xq))
                return np.full(n, 1.0), np.full(n, self.var)

        pt = np.zeros((1, 2))
        lo = expected_improvement(Fake(0.01), 1.0, pt)[0]
        hi = expected_improvement(Fake(1.0), 1.0, pt)[0]
        assert hi > lo


class TestOptimize:
    def test_finds_quadratic_minimum(self):
        spec = SearchSpec(n_init=5, n_iter=25, seed=3)
        res = optimize(quadratic((1.3, 0.4)), spec)
        assert res.best_point[0] == pytest.approx(1.3, abs=0.05)
        assert res.best_point[1] == pytest.approx(0.4, abs=0.05)
        assert res.best_value < 0.005

    def test_history_complete_and_best_consistent(self):
        spec = SearchSpec(n_init=4, n_iter=10, seed=1)
        res = optimize(quadratic((0.7, 1.1)), spec)
        assert len(res.history) == 14
        vals = [v for _, v in res.history]
        assert res.best_value == min(vals)
        assert quadratic((0.7, 1.1))(res.best_point) == pytest.approx(res.best_value)

    def test_deterministic_per_seed(self):
        spec = SearchSpec(n_init=5, n_iter=8, seed=42)
        r1 = optimize(quadratic((1.0, 1.0)), spec)
        r2 = optimize(quadratic((1.0, 1.0)), spec)
        assert r1.history == r2.history  # bitwise identical points and values

    def test_different_seeds_differ(self):
        f = quadratic((0.5, 0.5))
        r1 = optimize(f, SearchSpec(n_init=5, n_iter=3, seed=0))
        r2 = optimize(f, SearchSpec(n_init=5, n_iter=3, seed=1))
        assert r1.history != r2.history

    def test_respects_bounds(self, monkeypatch):
        monkeypatch.setattr(bayesopt, "BOUNDS", ((0.5, 1.5), (-1.0, 0.0)))
        spec = SearchSpec(n_init=6, n_iter=10, seed=5)
        res = optimize(quadratic((1.0, -0.5)), spec)
        for (a, b), _ in res.history:
            assert 0.5 <= a <= 1.5
            assert -1.0 <= b <= 0.0

    def test_nonfinite_objective_raises(self):
        def bad(p):
            return float("nan")

        with pytest.raises(ObjectiveNonFinite):
            optimize(bad, SearchSpec(n_init=3, n_iter=1, seed=0))

    def test_objective_runs_once_per_history_entry(self):
        calls = []

        def f(p):
            calls.append(p)
            return (p[0] - 1.0) ** 2 + (p[1] - 1.0) ** 2

        spec = SearchSpec(n_init=5, n_iter=15, seed=2)
        res = optimize(f, spec)
        # every proposal is one objective call, in history order
        assert len(res.history) == 20
        assert calls == [pt for pt, _ in res.history]

    def test_result_type(self):
        res = optimize(quadratic((1.0, 1.0)), SearchSpec(n_init=3, n_iter=2, seed=0))
        assert isinstance(res, OptResult)
