import inspect
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import areatrack
from areatrack import tracking
from areatrack.errors import OutOfOrderFrame, TooFewCorrespondences
from areatrack.geometry import BBox, Detection, MotionTransform, as_xywh, iou
from areatrack.tracking import (
    Tracker,
    associate,
    fit_motion_ransac,
    hungarian_solve,
    initiate,
    kf_update,
    predict,
)

def det(x, y, w=20, h=20, conf=0.9, frame=0, cls=0):
    return Detection(BBox(x, y, w, h), conf, cls, frame)


def one(b: BBox) -> tuple[np.ndarray, np.ndarray]:
    """A new track at one box, as a batch of one."""
    return initiate(as_xywh([b]))


def trace(blk: np.ndarray) -> float:
    """The trace of the 8x8 covariance that a (3, 4) block row stands for."""
    return float(blk[0].sum() + blk[2].sum())


class TestKalman:
    def test_initiate_zero_velocity(self):
        mean, cov = one(BBox(10, 10, 20, 30))
        assert mean.shape == (1, 8) and cov.shape == (1, 3, 4)
        assert mean[0].tolist() == [20, 25, 20, 30, 0, 0, 0, 0]
        p, c, v = cov[0]
        assert np.all(p > 0) and np.all(c == 0) and np.all(v > 0)

    def test_initiate_bit_identical(self, monkeypatch):
        # sizes below 1 px take the clamped noise branch
        boxes = [BBox(10, 10, 20, 30), BBox(3.3, -7.1, 0.4, 0.0), BBox(0.1, 0.2, 0.0, 0.7),
                 BBox(640.25, 359.5, 1.0, 0.999)]
        monkeypatch.setattr(tracking, "POS_NOISE_SCALE", 0.07)
        monkeypatch.setattr(tracking, "VEL_NOISE_SCALE", 0.003)
        mean, cov = initiate(as_xywh(boxes))
        for k, b in enumerate(boxes):
            want_mean, want_cov = reference_initiate(b)
            assert mean[k].tobytes() == want_mean.tobytes()
            assert cov[k].tobytes() == blocks(want_cov).tobytes()

    def test_predict_moves_by_velocity(self):
        mean0, cov0 = one(BBox(0, 0, 10, 10))
        mean0[0, 4] = 3.0  # vx
        mean, cov = predict(mean0, cov0)
        assert mean.shape == (1, 8) and cov.shape == (1, 3, 4)
        assert mean[0, 0] == pytest.approx(mean0[0, 0] + 3.0)
        assert trace(cov[0]) > trace(cov0[0])

    def test_update_pulls_toward_measurement(self):
        mean, cov = predict(*one(BBox(0, 0, 10, 10)))
        mean2, cov2 = kf_update(mean, cov, np.array([[8.0, 0.0, 10.0, 10.0]]))
        assert 5.0 < mean2[0, 0] < 8.0
        assert trace(cov2[0]) < trace(cov[0])

    def test_velocity_learned_from_track(self, monkeypatch):
        # exact measurements at x = 0, 10, 20 with small measurement noise:
        # the filter should predict roughly 30 next
        monkeypatch.setattr(tracking, "POS_NOISE_SCALE", 0.01)
        mean, cov = one(BBox(-5.0, -5.0, 10, 10))
        for x in (10, 20):
            mean, cov = predict(mean, cov)
            mean, cov = kf_update(mean, cov, np.array([[x, 0.0, 10.0, 10.0]]))
        mean, cov = predict(mean, cov)
        assert 28.0 <= mean[0, 0] <= 32.0

    def test_covariance_symmetric(self):
        mean, cov = one(BBox(5, 5, 12, 8))
        for x in (7, 9, 12):
            mean, cov = predict(mean, cov)
            z = BBox(x, 5, 12, 8)
            mean, cov = kf_update(mean, cov, np.array([[z.cx, z.cy, z.w, z.h]]))
            p, c, v = cov[0]
            block = np.stack([np.stack([p, c], -1), np.stack([c, v], -1)], -2)  # (4, 2, 2)
            assert np.all(np.linalg.eigvalsh(block) > -1e-9)


# The per-track filter the batched initiate, predict and kf_update replaced,
# kept as oracles: the 8x8 matrix products, one track at a time.
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.hstack([np.eye(4), np.zeros((4, 4))])


def reference_noise_stds(w, h):
    s, v = tracking.POS_NOISE_SCALE, tracking.VEL_NOISE_SCALE
    return np.array([s * w, s * h, s * w, s * h, v * w, v * h, v * w, v * h])


def reference_initiate(z: BBox) -> tuple[np.ndarray, np.ndarray]:
    mean = np.array([z.cx, z.cy, z.w, z.h, 0.0, 0.0, 0.0, 0.0])
    std = reference_noise_stds(max(z.w, 1.0), max(z.h, 1.0))
    std[:4] *= 2.0
    std[4:] *= 10.0
    return mean, np.diag(np.square(std))


def reference_predict(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    w, h = max(float(mean[2]), 1.0), max(float(mean[3]), 1.0)
    q = np.diag(np.square(reference_noise_stds(w, h)))
    cov = _F @ cov @ _F.T + q
    return _F @ mean, 0.5 * (cov + cov.T)


def reference_update(mean, cov, z: BBox) -> tuple[np.ndarray, np.ndarray]:
    w, h = max(float(mean[2]), 1.0), max(float(mean[3]), 1.0)
    r = np.diag(np.square(reference_noise_stds(w, h)[:4]))
    zvec = np.array([z.cx, z.cy, z.w, z.h])
    innov = zvec - _H @ mean
    S = _H @ cov @ _H.T + r
    K = np.linalg.solve(S.T, _H @ cov.T).T
    mean = mean + K @ innov
    cov = (np.eye(8) - K @ _H) @ cov
    return mean, 0.5 * (cov + cov.T)


_POS = np.arange(4)
# every entry but (i, i), (i, i + 4), (i + 4, i) and (i + 4, i + 4)
_OFF_BLOCK = np.kron(np.ones((2, 2)), np.eye(4)) == 0


def blocks(cov: np.ndarray) -> np.ndarray:
    """An 8x8 reference covariance as the filter's (3, 4) rows p, c and v,
    after checking that every entry outside the four 2x2 blocks is exactly 0
    and that each block is symmetric."""
    assert not cov[_OFF_BLOCK].any(), cov
    c = cov[_POS, _POS + 4]
    assert c.tobytes() == cov[_POS + 4, _POS].tobytes()
    return np.stack([cov[_POS, _POS], c, cov[_POS + 4, _POS + 4]])


def assert_state_close(mean, cov, want_mean, want_cov):
    """One filter state against the reference's, to 1e-12 relative: the
    mean against max(|m|, 1) and each block against sqrt(p v), so the check
    does not depend on how a LAPACK rounds the diagonal solve."""
    want = blocks(want_cov)
    assert np.all(np.abs(mean - want_mean) <= 1e-12 * np.maximum(np.abs(want_mean), 1.0))
    assert np.all(np.abs(cov - want) <= 1e-12 * np.sqrt(want[0] * want[2]))


class TestBlockInvariant:
    # F, H, Q, R and the initial covariance tie each position only to its own
    # velocity, which is what lets the filter keep four 2x2 blocks per track
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           pos_scale=st.floats(1e-3, 0.5),
           vel_scale=st.floats(1e-4, 0.1),
           steps=st.lists(st.sampled_from(["predict", "update"]), max_size=20))
    def test_off_block_entries_stay_zero(self, seed, pos_scale, vel_scale, steps):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracking, "POS_NOISE_SCALE", pos_scale)
            mp.setattr(tracking, "VEL_NOISE_SCALE", vel_scale)
            mean, cov = reference_initiate(_random_box(rng))
            blocks(cov)
            for step in steps:
                if step == "predict":
                    mean, cov = reference_predict(mean, cov)
                else:
                    mean, cov = reference_update(mean, cov, _random_box(rng))
                blocks(cov)


def _random_box(rng) -> BBox:
    # a quarter of the sizes fall below 1 px, where the noise model clamps
    size = rng.uniform(0.0, 1.0, 2) if rng.uniform() < 0.25 else rng.uniform(1.0, 80.0, 2)
    return BBox(*rng.uniform(-50.0, 700.0, 2), *size)


def _filtered_states(monkeypatch, n: int, seed: int, updates: int):
    """n random tracks after ``updates`` rounds of the reference predict and
    update, under random noise scales set for the rest of the test."""
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(tracking, "POS_NOISE_SCALE", rng.uniform(0.005, 0.2))
    monkeypatch.setattr(tracking, "VEL_NOISE_SCALE", rng.uniform(0.001, 0.05))
    states = [reference_initiate(_random_box(rng)) for _ in range(n)]
    for _ in range(updates):
        states = [reference_update(*reference_predict(*s), _random_box(rng)) for s in states]
    return rng, states


def _stack(states):
    """Reference states as the filter's (N, 8) means and (N, 3, 4) blocks."""
    return np.stack([m for m, _ in states]), np.stack([blocks(c) for _, c in states])


class TestKalmanBatchEqualsLoop:
    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("updates", [0, 1, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_predict_bit_identical(self, monkeypatch, n, updates, seed):
        _, states = _filtered_states(monkeypatch, n, seed, updates)
        mean, cov = predict(*_stack(states))
        for k, s in enumerate(states):
            want_mean, want_cov = reference_predict(*s)
            assert mean[k].tobytes() == want_mean.tobytes()
            assert cov[k].tobytes() == blocks(want_cov).tobytes()

    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("updates", [0, 1, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_bit_identical(self, monkeypatch, n, updates, seed):
        # bit-identical with numpy 2.4.6's OpenBLAS, but held to assert_state_close:
        # another LAPACK may round the reference's diagonal solve otherwise
        rng, states = _filtered_states(monkeypatch, n, seed, updates)
        states = [reference_predict(*s) for s in states]
        boxes = [_random_box(rng) for _ in states]
        z = np.array([[b.cx, b.cy, b.w, b.h] for b in boxes])
        mean, cov = kf_update(*_stack(states), z)
        for k, (s, b) in enumerate(zip(states, boxes)):
            assert_state_close(mean[k], cov[k], *reference_update(*s, b))


class TestRansac:
    def test_exact_translation(self):
        rng = np.random.default_rng(1)
        src = rng.uniform(0, 1000, (50, 2))
        dst = src + np.array([12.0, -7.0])
        pairs = [(tuple(s), tuple(d)) for s, d in zip(src, dst)]
        t = fit_motion_ransac(pairs, seed=0)
        x, y = t.apply_point(100.0, 100.0)
        assert (x, y) == pytest.approx((112.0, 93.0), abs=1e-6)

    def test_outlier_rejection(self):
        rng = np.random.default_rng(2)
        src = rng.uniform(0, 1000, (100, 2))
        dst = src + np.array([5.0, 3.0])
        dst[:30] += rng.uniform(50, 200, (30, 2))  # 30% gross outliers
        pairs = [(tuple(s), tuple(d)) for s, d in zip(src, dst)]
        t = fit_motion_ransac(pairs, seed=0)
        x, y = t.apply_point(500.0, 500.0)
        assert (x, y) == pytest.approx((505.0, 503.0), abs=0.5)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewCorrespondences):
            fit_motion_ransac([((0, 0), (1, 1)), ((2, 2), (3, 3))])

    def test_degenerate_collinear_falls_back_identity(self):
        pairs = [((float(i), 0.0), (float(i) + 100.0, 50.0)) for i in range(10)]
        t = fit_motion_ransac(pairs, seed=0)
        # all source points collinear: no affine hypothesis is well-posed
        assert np.allclose(t.m, np.eye(3))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        src = rng.uniform(0, 500, (40, 2))
        dst = src @ np.array([[1.01, 0.0], [0.0, 0.99]]) + 2.0
        dst[:10] += 80.0
        pairs = [(tuple(s), tuple(d)) for s, d in zip(src, dst)]
        t1 = fit_motion_ransac(pairs, seed=7)
        t2 = fit_motion_ransac(pairs, seed=7)
        assert np.array_equal(t1.m, t2.m)


class TestSampleTriples:
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 120, 10**9])
    def test_three_distinct_indices_in_range(self, n):
        idx = tracking._sample_triples(np.random.default_rng(n), n, 5000)
        assert idx.shape == (5000, 3)
        assert ((idx >= 0) & (idx < n)).all()
        s = np.sort(idx, axis=1)
        assert ((s[:, 1] > s[:, 0]) & (s[:, 2] > s[:, 1])).all()
        if n == 3:
            assert (s == [0, 1, 2]).all()

    def test_subsets_uniform(self):
        n, draws = 7, 20000
        idx = np.sort(tracking._sample_triples(np.random.default_rng(11), n, draws), axis=1)
        subsets = list(itertools.combinations(range(n), 3))
        code = (idx * [n * n, n, 1]).sum(axis=1)
        counts = np.array([np.count_nonzero(code == a * n * n + b * n + c) for a, b, c in subsets])
        assert counts.sum() == draws
        expected = draws / len(subsets)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 34 degrees of freedom: 65.25 is its 0.999 quantile
        assert chi2 < 65.25, counts


def reference_ransac(correspondences, seed=0):
    """The one-hypothesis-at-a-time RANSAC loop, kept as an oracle for the
    batched fit: lstsq per hypothesis, strict ``>`` and the all-inlier break.
    It tries the hypotheses of the fit's own draw, which is its input."""
    src = np.array([c[0] for c in correspondences], dtype=np.float64)
    dst = np.array([c[1] for c in correspondences], dtype=np.float64)
    n = len(src)
    rng = np.random.default_rng(seed)
    best_inliers = None
    best_count = 0
    for idx in tracking._sample_triples(rng, n, tracking.RANSAC_ITERS):
        fit = MotionTransform.fit(src[idx], dst[idx])
        if fit is None:
            continue
        m = fit.m
        pred = src @ m[:2, :2].T + m[:2, 2]
        err = np.linalg.norm(pred - dst, axis=1)
        inliers = err < tracking.RANSAC_INLIER_PX
        count = int(inliers.sum())
        if count > best_count:
            best_count = count
            best_inliers = inliers
            if count == n:
                break
    if best_inliers is None or best_count < 3:
        return MotionTransform.identity()
    fit = MotionTransform.fit(src[best_inliers], dst[best_inliers])
    return MotionTransform.identity() if fit is None else fit


def _ransac_case(kind: str, seed: int) -> list:
    rng = np.random.default_rng(seed)
    n = 120
    src = rng.uniform(0, 1920, (n, 2))
    lin = np.array([[1.01, 0.02], [-0.015, 0.99]])
    dst = src @ lin.T + np.array([12.0, -7.0])
    if kind == "translation":
        dst = src + np.array([12.0, -7.0])
    elif kind in ("outliers20", "outliers60"):
        dst += rng.normal(0.0, 0.8, dst.shape)
        k = n // 5 if kind == "outliers20" else 3 * n // 5
        dst[:k] += rng.uniform(-300, 300, (k, 2))
    elif kind == "duplicates":
        # 12 distinct points, each ten times: many samples repeat a point
        src = np.repeat(src[:12], 10, axis=0)
        dst = np.repeat(dst[:12], 10, axis=0) + rng.normal(0.0, 0.5, (n, 2))
    elif kind == "collinear":
        # two thirds of the points on one line, so many samples are collinear
        t = rng.uniform(0, 1000, 2 * n // 3)
        src[: len(t)] = np.column_stack([t, 0.5 * t + 100.0])
        dst = src @ lin.T + np.array([12.0, -7.0]) + rng.normal(0.0, 0.5, (n, 2))
    elif kind == "singular_linear":
        # half the pairs follow a map whose 2x2 part has determinant 1e-12:
        # hypotheses drawn only there are skipped as singular
        x, y = src[: n // 2, 0], src[: n // 2, 1]
        dst[: n // 2] = np.column_stack([x, x + 1e-12 * y])
    elif kind == "all_outliers":
        dst = rng.uniform(0, 1920, (n, 2))
    elif kind == "all_collinear":
        src[:, 1] = 3.0 * src[:, 0] - 40.0  # no hypothesis is well-posed
    return [(tuple(a), tuple(b)) for a, b in zip(src, dst)]


RANSAC_CASES = [
    "translation", "outliers20", "outliers60", "duplicates", "collinear",
    "singular_linear", "all_outliers", "all_collinear",
]


def svd_rank_rule(A: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """lstsq's default rank rule on every (3, 3) sample, by full SVD."""
    s = np.linalg.svd(A, compute_uv=False)
    return ok & (s[:, 2] > 3 * np.finfo(np.float64).eps * s[:, 0])


def _rank_samples(seed: int, kind: str, log_scale: float, log_offset: float) -> tuple:
    """64 samples with rows ``[x, y, 1]`` and a random ``ok`` mask. Near-
    collinear samples put the third point on the line through the first two,
    moved by a relative offset of 10**log_offset; some rows are zeroed, as a
    non-finite pair is before the rule sees it."""
    rng = np.random.default_rng(seed)
    k = 64
    P = rng.uniform(-1.0, 1.0, (k, 3, 2)) + rng.uniform(0.0, 2.0, (k, 1, 2))
    if kind == "collinear":
        t = rng.uniform(-2.0, 2.0, (k, 1))
        P[:, 2] = (P[:, 0] + t * (P[:, 1] - P[:, 0])) * (
            1.0 + 10.0 ** log_offset * rng.standard_normal((k, 2)))
    elif kind == "duplicate":
        P[:, 2] = P[:, 1]
    P *= 10.0 ** log_scale
    P[rng.uniform(size=(k, 3)) < 0.1] = 0.0
    A = np.concatenate([P, np.ones((k, 3, 1))], axis=2)
    return A, rng.uniform(size=k) < 0.9


class TestRankCertificate:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "collinear", "duplicate"]),
           log_scale=st.one_of(st.floats(-3.0, 3.0), st.floats(3.0, 300.0)),
           log_offset=st.floats(-16.0, -2.0))
    def test_equals_full_svd_rule(self, seed, kind, log_scale, log_offset):
        A, ok = _rank_samples(seed, kind, log_scale, log_offset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing ||A||_F^3 stays silent
            got = tracking._full_rank(A, ok)
        assert np.array_equal(got, svd_rank_rule(A, ok))

    @pytest.fixture
    def svd_sizes(self, monkeypatch):
        sizes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: sizes.append(len(a)) or svd(a, **kw))
        return sizes

    def test_spread_samples_skip_the_svd(self, svd_sizes):
        for seed in (0, 1, 5):
            fit_motion_ransac(_ransac_case("outliers20", seed), seed=seed)
        assert svd_sizes == []

    def test_only_uncertified_samples_are_decomposed(self, svd_sizes):
        rng = np.random.default_rng(3)
        A = np.concatenate([rng.uniform(0.0, 1000.0, (20, 3, 2)), np.ones((20, 3, 1))], axis=2)
        ok = np.ones(20, bool)
        A[:5, 2] = A[:5, 1]  # rank 2
        A[5:8, :, :2] *= 1e120  # ||A||_F^3 overflows; the ones column fails the rule
        A[8:10, :, :2] = 0.0  # zeroed pairs; the first is not ok
        ok[8] = False
        got = tracking._full_rank(A, ok)
        assert svd_sizes == [9]
        assert not got[:10].any() and got[10:].all()
        assert np.array_equal(got, svd_rank_rule(A, ok))


class TestRansacBatchEqualsLoop:
    @pytest.mark.parametrize("kind", RANSAC_CASES)
    @pytest.mark.parametrize("n_iters", [1, 100])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_bit_identical(self, monkeypatch, kind, n_iters, seed):
        monkeypatch.setattr(tracking, "RANSAC_ITERS", n_iters)
        pairs = _ransac_case(kind, seed)
        for ransac_seed in (seed, seed + 17):
            want = reference_ransac(pairs, seed=ransac_seed)
            got = fit_motion_ransac(pairs, seed=ransac_seed)
            assert got.m.tobytes() == want.m.tobytes()
            # the (n, 2, 2) array parse_motion_file returns fits as its list of pairs
            got = fit_motion_ransac(np.array(pairs), seed=ransac_seed)
            assert got.m.tobytes() == want.m.tobytes()



class TestInlierBoundary:
    def test_squared_threshold_decides_as_the_distance(self):
        # scoring compares the squared residual with RANSAC_INLIER_PX**2. As
        # sqrt is correctly rounded and monotone, that decides as
        # sqrt(x) < RANSAC_INLIER_PX for every float64 x when the square is exact
        c = tracking.RANSAC_INLIER_PX
        assert Fraction(c) ** 2 == Fraction(c**2), "the inlier threshold's square is not exact"
        below, above = math.nextafter(c**2, 0.0), math.nextafter(c**2, math.inf)
        assert math.sqrt(below) < c == math.sqrt(c**2)
        for x in (0.0, below, c**2, above, math.inf, math.nan):
            assert (math.sqrt(x) < c) == (x < c**2)

_NONFINITE_SCRIPT = """
import sys
import numpy as np
from areatrack import tracking
from areatrack.geometry import MotionTransform
from areatrack.tracking import fit_motion_ransac

{reference}

rng = np.random.default_rng(3)
src = rng.uniform(0, 1000, (200, 2))
dst = src + np.array([1.0, -0.5])  # the zeroed origin pair would fit
dst[:40] += rng.uniform(50, 200, (40, 2))
src[7, 0] = float(sys.argv[1])
pairs = [(tuple(a), tuple(b)) for a, b in zip(src, dst)]
fit = reference_ransac if sys.argv[2] == "reference" else fit_motion_ransac
print(fit(pairs, seed=3).m.tobytes().hex())
"""


def _run_nonfinite(value: str, which: str) -> subprocess.CompletedProcess:
    script = _NONFINITE_SCRIPT.format(reference=inspect.getsource(reference_ransac))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(areatrack.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-c", script, value, which],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestRansacNonFinite:
    # in a subprocess with a timeout: LAPACK's least squares never returned
    # on an infinite sample, and a hang must fail the test, not the run
    def test_nan_and_inf_skip_the_pair(self):
        # a huge finite coordinate overflows the scoring without a warning, and
        # its pair is never an inlier either
        got = {}
        for value in ("nan", "inf", "1e308", "-1e308"):
            p = _run_nonfinite(value, "batched")
            assert p.returncode == 0, p.stderr
            # LAPACK complains on stdout, warnings go to stderr: neither may appear
            assert p.stderr == "" and len(p.stdout.splitlines()) == 1, p.stdout
            got[value] = p.stdout
        assert got["nan"] == got["inf"] == got["1e308"] == got["-1e308"]
        m = np.frombuffer(bytes.fromhex(got["nan"].strip()))
        assert m.reshape(3, 3)[:2, 2] == pytest.approx([1.0, -0.5], abs=1e-6)

    def test_nan_result_unchanged(self):
        # the loop skipped nan samples through LinAlgError (and LAPACK printed
        # its complaints first); the batched fit returns the same transform
        want = _run_nonfinite("nan", "reference")
        assert want.returncode == 0, want.stderr
        lines = want.stdout.splitlines()
        result = [line for line in lines if len(line) == 144 and set(line) <= set("0123456789abcdef")]
        assert len(result) == 1, want.stdout
        assert _run_nonfinite("nan", "batched").stdout == result[0] + "\n"


def brute_force_assignment(cost: np.ndarray) -> float:
    n, m = cost.shape
    if n <= m:
        best = min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    else:
        best = min(
            sum(cost[p[j], j] for j in range(m))
            for p in itertools.permutations(range(n), m)
        )
    return best


class TestHungarian:
    def test_empty(self):
        assert hungarian_solve(np.zeros((0, 3))).shape == (0, 2)

    def test_hand_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pairs = hungarian_solve(cost)
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(5.0)

    def test_rectangular(self):
        cost = np.array([[1.0, 2.0, 0.5], [2.0, 0.1, 3.0]])
        pairs = hungarian_solve(cost)
        assert len(pairs) == 2
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(0.6)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_solve(np.array([[1.0, np.inf], [0.0, 1.0]]))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, m, seed):
        cost = np.random.default_rng(seed).uniform(0, 10, (n, m))
        pairs = hungarian_solve(cost)
        assert len(pairs) == min(n, m)
        got = sum(cost[i, j] for i, j in pairs)
        assert got == pytest.approx(brute_force_assignment(cost))


def rows(dets) -> tuple[np.ndarray, np.ndarray]:
    """``Tracker.step``'s detection arguments: the boxes as ``[x, y, w, h]``
    rows and the confidences."""
    return as_xywh(d.bbox for d in dets), np.array([d.confidence for d in dets])


def packed(tracks, dets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``associate``'s arguments for track boxes and detections: both box
    sets as ``[x, y, w, h]`` rows and the detections' confidences."""
    return (as_xywh(tracks), *rows(dets))


class TestAssociate:
    def test_simple_match(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(1, 1)]
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == [[0, 0]]
        assert r.born.tolist() == []

    def test_gate_blocks_weak_overlap(self):
        tracks = [BBox(0, 0, 10, 10)]
        dets = [det(9, 9, 10, 10)]  # IoU = 1/199 < 0.3
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == []
        assert r.born.tolist() == [0]

    def test_low_conf_second_stage(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(1, 1, conf=0.3)]  # below high threshold, above floor
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == [[0, 0]]
        assert r.born.tolist() == []

    def test_low_conf_needs_tighter_gate(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(8, 8, conf=0.3)]  # IoU ~ 0.22: passes stage-1 gate but not stage-2
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == []
        assert r.born.tolist() == []  # a low-confidence detection is never born

    def test_below_floor_never_matched(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(0, 0, conf=0.05)]
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == []
        assert r.born.tolist() == []

    def test_high_conf_priority(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(2, 2, conf=0.2), det(4, 4, conf=0.9)]
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == [[0, 1]]
        assert r.born.tolist() == []

    def test_two_tracks_two_dets(self):
        tracks = [BBox(0, 0, 20, 20), BBox(100, 100, 20, 20)]
        dets = [det(101, 99), det(1, 2)]
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == [[0, 1], [1, 0]]
        assert r.born.tolist() == []

    def test_only_high_confidence_leftovers_are_born(self):
        # the track takes the high-confidence box in stage 1; of the two boxes
        # far from it, only the high-confidence one starts a track
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(200, 200, conf=0.3), det(1, 1), det(100, 100, conf=0.6)]
        r = associate(*packed(tracks, dets))
        assert r.matches.tolist() == [[0, 1]]
        assert r.born.tolist() == [2]


@dataclass
class RefAssociation:
    matches: list
    unmatched_tracks: list
    unmatched_detections: list


def reference_associate(track_boxes, dets) -> RefAssociation:
    """The per-pair association loop the IoU cost matrix replaced, kept as an
    oracle: one scalar ``iou`` call per track and detection, and every
    detection row left unmatched, high-confidence ones first."""

    def stage(track_idx, det_idx, gate):
        if not track_idx or not det_idx:
            return [], list(track_idx), list(det_idx)
        cost = np.ones((len(track_idx), len(det_idx)))
        for i, ti in enumerate(track_idx):
            for j, dj in enumerate(det_idx):
                cost[i, j] = 1.0 - iou(track_boxes[ti], dets[dj].bbox)
        matches = []
        matched_t, matched_d = set(), set()
        for i, j in hungarian_solve(cost):
            if 1.0 - cost[i, j] >= gate:
                matches.append((track_idx[i], det_idx[j]))
                matched_t.add(track_idx[i])
                matched_d.add(det_idx[j])
        rest_t = [t for t in track_idx if t not in matched_t]
        rest_d = [d for d in det_idx if d not in matched_d]
        return matches, rest_t, rest_d

    high = [i for i, d in enumerate(dets) if d.confidence >= tracking.HIGH_CONF_THRESHOLD]
    low = [i for i, d in enumerate(dets)
           if tracking.LOW_CONF_FLOOR <= d.confidence < tracking.HIGH_CONF_THRESHOLD]
    m1, rest_t, rest_high = stage(list(range(len(track_boxes))), high, tracking.IOU_GATE_STAGE1)
    m2, rest_t, rest_low = stage(rest_t, low, tracking.IOU_GATE_STAGE2)
    return RefAssociation(m1 + m2, rest_t, rest_high + rest_low)


class TestAssociateEqualsLoop:
    @given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, n, m, seed):
        # boxes crowd a small field so most tracks overlap several detections;
        # confidences span the floor and both thresholds
        rng = np.random.default_rng(seed)
        tracks = [BBox(*rng.uniform(0, 120, 2), *rng.uniform(5, 40, 2)) for _ in range(n)]
        dets = [
            Detection(BBox(*rng.uniform(0, 120, 2), *rng.uniform(5, 40, 2)),
                      float(rng.uniform()), 0, 0)
            for _ in range(m)
        ]
        got, want = associate(*packed(tracks, dets)), reference_associate(tracks, dets)
        assert got.matches.shape == (len(want.matches), 2)
        assert got.matches.tolist() == [list(p) for p in want.matches]
        assert got.born.tolist() == [j for j in want.unmatched_detections
                                     if dets[j].confidence >= tracking.HIGH_CONF_THRESHOLD]


@dataclass
class RefTrack:
    id: int
    mean: np.ndarray
    cov: np.ndarray
    misses: int = 0


@dataclass
class RefTracker:
    tracks: list
    next_id: int = 1


def reference_step(tr: RefTracker, frame_dets, motion) -> list:
    """``Tracker.step`` before batching, kept as an oracle: one record per
    track, moved through ``apply_point``, predicted and updated one at a
    time, and associated pair by pair."""
    if motion is not None:
        for t in tr.tracks:
            t.mean[:2] = motion.apply_point(float(t.mean[0]), float(t.mean[1]))
    for t in tr.tracks:
        t.mean, t.cov = reference_predict(t.mean, t.cov)
    boxes = []
    for t in tr.tracks:
        cx, cy = float(t.mean[0]), float(t.mean[1])
        w, h = max(0.0, float(t.mean[2])), max(0.0, float(t.mean[3]))
        boxes.append(BBox(cx - w / 2.0, cy - h / 2.0, w, h))
    result = reference_associate(boxes, frame_dets)
    out = []
    for ti, dj in result.matches:
        t = tr.tracks[ti]
        t.mean, t.cov = reference_update(t.mean, t.cov, frame_dets[dj].bbox)
        t.misses = 0
        out.append((t.id, frame_dets[dj]))
    for ti in result.unmatched_tracks:
        tr.tracks[ti].misses += 1
    tr.tracks = [t for t in tr.tracks if t.misses <= tracking.MAX_MISSES]
    for dj in result.unmatched_detections:
        det = frame_dets[dj]
        if det.confidence >= tracking.HIGH_CONF_THRESHOLD:
            tr.tracks.append(RefTrack(tr.next_id, *reference_initiate(det.bbox)))
            out.append((tr.next_id, det))
            tr.next_id += 1
    return sorted(out, key=lambda pair: pair[0])


def _crowded_frames(seed: int, n_objects: int = 30, frames: int = 12, projective=False):
    """Moving boxes with jitter, dropouts, mixed confidences and a small
    random affine camera motion per frame; a homography with a non-zero
    third row when ``projective``."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 600, (n_objects, 2))
    vel = rng.normal(0, 3, (n_objects, 2))
    size = rng.uniform(0.5, 40, (n_objects, 2))
    for k in range(frames):
        m = np.eye(3)
        m[:2, :2] += rng.normal(0, 0.01, (2, 2))
        m[:2, 2] = rng.normal(0, 5, 2)
        if projective:
            m[2, :2] = rng.normal(0, 2e-4, 2)
        dets = [
            Detection(BBox(*(pos[i] + rng.normal(0, 1.5, 2)), *size[i]),
                      float(rng.uniform()), 0, k)
            for i in range(n_objects) if rng.uniform() > 0.15
        ]
        yield k, dets, (MotionTransform(m) if k % 3 else None)
        pos += vel


class TestTrackerBatchEqualsLoop:
    """The tracker against the per-track loop: returned pairs, ids and
    misses exactly, filter states within ``assert_state_close``."""

    @staticmethod
    def run(monkeypatch, frames):
        monkeypatch.setattr(tracking, "MAX_MISSES", 3)
        got, want = Tracker(), RefTracker([])
        for k, dets, motion in frames:
            out = got.step(*rows(dets), frame=k, motion=motion)
            assert [(tid, dets[j]) for tid, j in out] == reference_step(want, dets, motion)
            t = got.tracks
            assert len(t) == len(want.tracks) > 0
            assert t.ids.tolist() == [r.id for r in want.tracks]
            assert t.misses.tolist() == [r.misses for r in want.tracks]
            for mean, cov, r in zip(t.mean, t.cov, want.tracks):
                assert_state_close(mean, cov, r.mean, r.cov)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical(self, monkeypatch, seed):
        self.run(monkeypatch, _crowded_frames(seed))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_homography_motion(self, monkeypatch, seed):
        # the oracle moves each centre through apply_point, which divides by
        # the third homogeneous coordinate
        self.run(monkeypatch, _crowded_frames(seed, projective=True))


def test_confidence_band_constants():
    # a zero floor would let a zero-confidence detection match in stage 2
    assert 0.0 < tracking.LOW_CONF_FLOOR < tracking.HIGH_CONF_THRESHOLD <= 1.0


class TestTracker:
    def test_ids_start_at_one(self):
        tr = Tracker()
        out = tr.step(*rows([det(0, 0, frame=0), det(100, 100, frame=0)]), frame=0)
        assert sorted(tid for tid, _ in out) == [1, 2]

    def test_identity_persists(self):
        tr = Tracker()
        tr.step(*rows([det(0, 0, frame=0)]), frame=0)
        for k in range(1, 8):
            out = tr.step(*rows([det(2 * k, 0, frame=k)]), frame=k)
            assert [tid for tid, _ in out] == [1]

    def test_low_conf_never_spawns(self):
        tr = Tracker()
        out = tr.step(*rows([det(0, 0, conf=0.3, frame=0)]), frame=0)
        assert out == []
        assert len(tr.tracks) == 0

    def test_low_conf_continues_existing(self):
        tr = Tracker()
        tr.step(*rows([det(0, 0, frame=0)]), frame=0)
        out = tr.step(*rows([det(1, 1, conf=0.3, frame=1)]), frame=1)
        assert [tid for tid, _ in out] == [1]

    def test_track_dies_after_max_misses(self, monkeypatch):
        monkeypatch.setattr(tracking, "MAX_MISSES", 3)
        tr = Tracker()
        tr.step(*rows([det(0, 0, frame=0)]), frame=0)
        for k in range(1, 5):
            tr.step(*rows([]), frame=k)
        assert len(tr.tracks) == 0
        out = tr.step(*rows([det(0, 0, frame=10)]), frame=10)
        assert [tid for tid, _ in out] == [2]  # fresh id, not reused

    def test_out_of_order_frame(self):
        tr = Tracker()
        tr.step(*rows([det(0, 0, frame=5)]), frame=5)
        with pytest.raises(OutOfOrderFrame):
            tr.step(*rows([det(0, 0, frame=5)]), frame=5)
        with pytest.raises(OutOfOrderFrame):
            tr.step(*rows([det(0, 0, frame=3)]), frame=3)

    def test_camera_jump_breaks_without_compensation(self):
        # a 60 px pan between frames: without motion input the id flips,
        # with the true transform supplied the track survives
        def run(with_motion: bool):
            tr = Tracker()
            tr.step(*rows([det(100, 100, 30, 30, frame=0)]), frame=0)
            tr.step(*rows([det(100, 100, 30, 30, frame=1)]), frame=1)
            motion = MotionTransform.translation(60.0, 0.0) if with_motion else None
            out = tr.step(*rows([det(160, 100, 30, 30, frame=2)]), motion=motion, frame=2)
            return [tid for tid, _ in out]

        assert run(with_motion=True) == [1]
        assert run(with_motion=False) == [2]

    def test_crossing_targets_keep_ids(self):
        tr = Tracker()
        # two targets converging horizontally on separate rows
        a, b = 0.0, 200.0
        ids = set()
        for k in range(10):
            out = tr.step(
                *rows([det(a, 0, 30, 30, frame=k), det(b, 100, 30, 30, frame=k)]), frame=k
            )
            ids.update(tid for tid, _ in out)
            a += 8
            b -= 8
        assert ids == {1, 2}

    def test_one_iou_matrix_per_association(self, monkeypatch):
        # both stages slice one matrix, also in a frame with no tracks yet
        calls = {"iou_matrix": 0, "associate": 0}

        def counted(name):
            inner = getattr(tracking, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)
            return call

        for name in calls:
            monkeypatch.setattr(tracking, name, counted(name))
        tr = Tracker()
        for k, dets, motion in _crowded_frames(0):
            tr.step(*rows(dets), frame=k, motion=motion)
        assert calls == {"iou_matrix": 12, "associate": 12}

    def test_track_sent_to_infinity_ends(self):
        # the third row maps x = 20 to w = 0.0625 * 20 - 1.25 = 0, exactly: the
        # first track's centre goes to infinity, the second's to a finite point
        motion = MotionTransform(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0625, 0.0, -1.25]]))
        x, y = motion.apply_point(110.0, 110.0)
        tr = Tracker()
        tr.step(*rows([det(10, 10), det(100, 100)]), frame=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tr.step(*rows([det(x - 10, y - 10, frame=1)]), frame=1, motion=motion)
        assert [tid for tid, _ in out] == [2]
        assert tr.tracks.ids.tolist() == [2]
        assert np.isfinite(tr.tracks.mean).all()
