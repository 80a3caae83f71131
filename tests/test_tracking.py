import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areatrack.errors import OutOfOrderFrame, TooFewCorrespondences
from areatrack.geometry import BBox, Detection, MotionTransform
from areatrack.tracking import (
    Tracker,
    TrackerConfig,
    associate,
    fit_motion_ransac,
    hungarian_solve,
    initiate,
    kf_update,
    predict,
)

CFG = TrackerConfig()


def det(x, y, w=20, h=20, conf=0.9, frame=0, cls=0):
    return Detection(BBox(x, y, w, h), conf, cls, frame)


class TestKalman:
    def test_initiate_zero_velocity(self):
        s = initiate(BBox(10, 10, 20, 30), CFG)
        assert list(s.mean) == [20, 25, 20, 30, 0, 0, 0, 0]
        assert np.all(np.diag(s.covariance) > 0)

    def test_predict_moves_by_velocity(self):
        s = initiate(BBox(0, 0, 10, 10), CFG)
        s.mean[4] = 3.0  # vx
        s2 = predict(s, CFG)
        assert s2.mean[0] == pytest.approx(s.mean[0] + 3.0)
        assert np.trace(s2.covariance) > np.trace(s.covariance)

    def test_update_pulls_toward_measurement(self):
        s = predict(initiate(BBox(0, 0, 10, 10), CFG), CFG)
        s2 = kf_update(s, BBox.from_center(8, 0, 10, 10), CFG)
        assert 5.0 < s2.mean[0] < 8.0
        assert np.trace(s2.covariance) < np.trace(s.covariance)

    def test_velocity_learned_from_track(self):
        # exact measurements at x = 0, 10, 20 with small measurement noise:
        # the filter should predict roughly 30 next
        cfg = TrackerConfig(pos_noise_scale=0.01)
        s = initiate(BBox.from_center(0, 0, 10, 10), cfg)
        for x in (10, 20):
            s = predict(s, cfg)
            s = kf_update(s, BBox.from_center(x, 0, 10, 10), cfg)
        s = predict(s, cfg)
        assert 28.0 <= s.mean[0] <= 32.0

    def test_covariance_symmetric(self):
        s = initiate(BBox(5, 5, 12, 8), CFG)
        for x in (7, 9, 12):
            s = predict(s, CFG)
            s = kf_update(s, BBox(x, 5, 12, 8), CFG)
            assert np.allclose(s.covariance, s.covariance.T)
            assert np.all(np.linalg.eigvalsh(s.covariance) > -1e-9)


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
        assert hungarian_solve(np.zeros((0, 3))) == []

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


class TestAssociate:
    def test_simple_match(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(1, 1)]
        r = associate(tracks, dets, CFG)
        assert r.matches == [(0, 0)]
        assert r.unmatched_tracks == [] and r.unmatched_detections == []

    def test_gate_blocks_weak_overlap(self):
        tracks = [BBox(0, 0, 10, 10)]
        dets = [det(9, 9, 10, 10)]  # IoU = 1/199 < 0.3
        r = associate(tracks, dets, CFG)
        assert r.matches == []
        assert r.unmatched_tracks == [0]
        assert r.unmatched_detections == [0]

    def test_low_conf_second_stage(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(1, 1, conf=0.3)]  # below high threshold, above floor
        r = associate(tracks, dets, CFG)
        assert r.matches == [(0, 0)]

    def test_low_conf_needs_tighter_gate(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(8, 8, conf=0.3)]  # IoU ~ 0.22: passes stage-1 gate but not stage-2
        r = associate(tracks, dets, CFG)
        assert r.matches == []

    def test_below_floor_never_matched(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(0, 0, conf=0.05)]
        r = associate(tracks, dets, CFG)
        assert r.matches == []
        assert r.unmatched_detections == []

    def test_high_conf_priority(self):
        tracks = [BBox(0, 0, 20, 20)]
        dets = [det(2, 2, conf=0.2), det(4, 4, conf=0.9)]
        r = associate(tracks, dets, CFG)
        assert r.matches == [(0, 1)]

    def test_two_tracks_two_dets(self):
        tracks = [BBox(0, 0, 20, 20), BBox(100, 100, 20, 20)]
        dets = [det(101, 99), det(1, 2)]
        r = associate(tracks, dets, CFG)
        assert sorted(r.matches) == [(0, 1), (1, 0)]


class TestTracker:
    def test_ids_start_at_one(self):
        tr = Tracker()
        out = tr.step([det(0, 0, frame=0), det(100, 100, frame=0)], frame=0)
        assert sorted(tid for tid, _ in out) == [1, 2]

    def test_identity_persists(self):
        tr = Tracker()
        tr.step([det(0, 0, frame=0)], frame=0)
        for k in range(1, 8):
            out = tr.step([det(2 * k, 0, frame=k)], frame=k)
            assert [tid for tid, _ in out] == [1]

    def test_low_conf_never_spawns(self):
        tr = Tracker()
        out = tr.step([det(0, 0, conf=0.3, frame=0)], frame=0)
        assert out == []
        assert tr.tracks == []

    def test_low_conf_continues_existing(self):
        tr = Tracker()
        tr.step([det(0, 0, frame=0)], frame=0)
        out = tr.step([det(1, 1, conf=0.3, frame=1)], frame=1)
        assert [tid for tid, _ in out] == [1]

    def test_track_dies_after_max_misses(self):
        cfg = TrackerConfig(max_misses=3)
        tr = Tracker(cfg)
        tr.step([det(0, 0, frame=0)], frame=0)
        for k in range(1, 5):
            tr.step([], frame=k)
        assert tr.tracks == []
        out = tr.step([det(0, 0, frame=10)], frame=10)
        assert [tid for tid, _ in out] == [2]  # fresh id, not reused

    def test_out_of_order_frame(self):
        tr = Tracker()
        tr.step([det(0, 0, frame=5)], frame=5)
        with pytest.raises(OutOfOrderFrame):
            tr.step([det(0, 0, frame=5)], frame=5)
        with pytest.raises(OutOfOrderFrame):
            tr.step([det(0, 0, frame=3)], frame=3)

    def test_camera_jump_breaks_without_compensation(self):
        # a 60 px pan between frames: without motion input the id flips,
        # with the true transform supplied the track survives
        def run(with_motion: bool):
            tr = Tracker()
            tr.step([det(100, 100, 30, 30, frame=0)], frame=0)
            tr.step([det(100, 100, 30, 30, frame=1)], frame=1)
            motion = MotionTransform.translation(60.0, 0.0) if with_motion else None
            out = tr.step([det(160, 100, 30, 30, frame=2)], motion=motion, frame=2)
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
                [det(a, 0, 30, 30, frame=k), det(b, 100, 30, 30, frame=k)], frame=k
            )
            ids.update(tid for tid, _ in out)
            a += 8
            b -= 8
        assert ids == {1, 2}
