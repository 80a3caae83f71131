import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize

from areatrack import bayesopt
from areatrack.bayesopt import (
    REFINE_GTOL,
    GpPosterior,
    OptResult,
    SearchSpec,
    expected_improvement,
    gp_fit,
    neg_ei_and_grad,
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


def random_gp(seed: int, kind: str) -> tuple[GpPosterior, float, float]:
    """A GP on 2-25 random points of the unit square, an incumbent drawn
    around the data's minimum, and the spread of the data.

    ``tiny-spread`` data have a spread of 2e-12, so sigma <= 1e-12 near the
    data and EI is clamped to 0 there. ``variance-clamp`` divides the
    Cholesky factor by 1e3, so the posterior variance sits at its floor
    almost everywhere.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 26))
    X = rng.uniform(0.0, 1.0, (n, 2))
    y = rng.normal(size=n)
    if kind == "tiny-spread":
        y = 2e-12 * y / y.std()
    gp = gp_fit(X, y)
    if kind == "variance-clamp":
        gp = GpPosterior(gp.X, gp._alpha, gp._chol / 1e3, gp.length_scale, gp.signal_var,
                         gp._y_mean, gp._y_scale)
    return gp, float(y.min()) + float(rng.normal(0.0, 1.0)) * float(np.ptp(y)), float(np.ptp(y))


_GP_KINDS = st.sampled_from(["fitted", "tiny-spread", "variance-clamp"])


class TestEiGradient:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=_GP_KINDS,
           u=st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)), near=st.booleans())
    # EI is 204 here, and a step of 1e-6 alone misses its gradient by 7e-5 in rounding
    @example(seed=489, kind="fitted", u=(0.0, 1.0), near=False)
    def test_matches_central_differences(self, seed, kind, u, near):
        gp, incumbent, spread = random_gp(seed, kind)
        u = np.array(u)
        if near:  # within 0.014 of a data point, where the posterior is most certain
            u = gp.X[0] + 0.01 * (u - 0.5)
        # central differences along each axis at steps t = h and 2h, for h
        # on a ladder from 1e-6 to 0.066
        h = 1e-6 * 4.0 ** np.arange(9)
        t = np.concatenate([h, 2.0 * h])
        shifts = t[:, None, None, None] * np.array([1.0, -1.0])[:, None, None] * np.eye(2)
        points = np.vstack([u, (u + shifts).reshape(-1, 2)])
        ei = expected_improvement(gp, incumbent, points)
        mu, var = gp.mean_var(points[:5])  # u and its four nearest difference points
        floor = gp._y_scale ** 2 * 1e-12
        # the same clamps apply at those five; where the variance is
        # clamped EI is a kink within a few sigma of the incumbent
        assume(len(set(zip(ei[:5] == 0.0, var == floor))) == 1)
        assume(var[0] > floor or np.all(np.abs(incumbent - mu) > 40.0 * np.sqrt(var)))
        fun, grad = neg_ei_and_grad(gp, incumbent, u)
        f = ei[1:].reshape(len(t), 2, 2)  # (step, sign, axis)
        diff = (f[:, 0] - f[:, 1]) / (2.0 * t[:, None])
        # Richardson's extrapolation of each h and 2h pair cancels the h^2
        # error term. A small step loses EI's rounding error, up to about
        # 1e-16 * sum |alpha| / h on an ill-conditioned GP; a large one loses
        # the h^4 term where EI bends sharply, and any step that crosses a
        # clamp. The reference is the extrapolation closest to both of its
        # neighbours on the ladder, and that distance is its error estimate:
        # a reference less certain than a quarter of the tolerance decides
        # nothing
        richardson = (4.0 * diff[: len(h)] - diff[len(h):]) / 3.0
        gaps = np.abs(np.diff(richardson, axis=0))
        error = np.maximum(gaps[:-1], gaps[1:])
        best = np.argmin(error, axis=0)
        central = richardson[1 + best, [0, 1]]
        rtol, atol = 1e-5, 1e-7 * spread
        assume(np.all(error[best, [0, 1]] <= (rtol * np.abs(central) + atol) / 4.0))
        np.testing.assert_allclose(-grad, central, rtol=rtol, atol=atol)
        if ei[0] == 0.0:
            assert fun == 0.0 and np.all(grad == 0.0)
        if var[0] == floor:
            assert np.all(gp.mean_var_grad(u)[3] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=_GP_KINDS,
           u=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)))
    def test_value_is_expected_improvement(self, seed, kind, u):
        gp, incumbent, _ = random_gp(seed, kind)
        u = np.array(u)
        fun, _ = neg_ei_and_grad(gp, incumbent, u)
        assert -fun == pytest.approx(expected_improvement(gp, incumbent, u[None, :])[0],
                                     rel=1e-12, abs=0.0)

    def test_mean_and_variance_are_mean_var(self):
        gp, _, _ = random_gp(11, "fitted")
        for u in np.random.default_rng(1).uniform(-0.5, 1.5, (50, 2)):
            mu, var = gp.mean_var(u[None, :])
            assert gp.mean_var_grad(u)[:2] == (mu[0], var[0])

    def test_stationary_start_skip_matches_minimize(self):
        # the starts the skip returns unchanged are the ones L-BFGS-B stops at in iteration 0
        skipped = 0
        for seed in range(40):
            gp, incumbent, _ = random_gp(seed, "fitted")
            for start in np.random.default_rng(seed).uniform(0.0, 1.0, (10, 2)):
                x, fun = bayesopt._refine(gp, incumbent, start)
                res = minimize(lambda v: neg_ei_and_grad(gp, incumbent, v), start, jac=True,
                               bounds=[(0.0, 1.0)] * 2, method="L-BFGS-B",
                               options={"maxiter": 15, "gtol": REFINE_GTOL})
                assert x.tolist() == res.x.tolist()
                assert fun == res.fun
                skipped += res.nit == 0
        assert skipped >= 10


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
