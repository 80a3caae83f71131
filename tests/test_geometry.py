import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from areatrack.geometry import (
    BBox,
    CameraIntrinsics,
    DepthMap,
    MotionTransform,
    as_xywh,
    iou,
    iou_matrix,
    pixel_grid,
)

INTR = CameraIntrinsics(f_u=1000.0, f_v=1000.0, p_u=960.0, p_v=540.0, width=1920, height=1080)

boxes = st.builds(
    BBox,
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    w=st.floats(0, 100),
    h=st.floats(0, 100),
)


class TestIou:
    def test_identical(self):
        b = BBox(0, 0, 2, 2)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1
        assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7)

    def test_degenerate(self):
        assert iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0

    @given(boxes, boxes)
    def test_symmetric(self, a, b):
        assert iou(a, b) == pytest.approx(iou(b, a))

    @given(boxes, boxes)
    # identical tiny boxes away from the origin: (x + w) - x rounds above w,
    # so the unclamped intersection exceeds either area (iou 1.09)
    @example(BBox(2, 2, 1e-14, 1e-14), BBox(2, 2, 1e-14, 1e-14))
    def test_bounded(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0 + 1e-12


# coordinates and sizes from a wide range, plus tiny sizes where the clamp bites
coords = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, 2.0]))
sizes = st.one_of(st.floats(0, 1e4), st.floats(0, 1e-12), st.sampled_from([0.0, 1e-14]))
wide_boxes = st.builds(BBox, x=coords, y=coords, w=sizes, h=sizes)
box_lists = st.lists(st.one_of(boxes, wide_boxes), max_size=6)


class TestIouMatrix:
    @given(box_lists, box_lists)
    # two identical 1e-14 boxes at (2, 2): the clamp decides the value
    @example([BBox(2, 2, 1e-14, 1e-14)], [BBox(2, 2, 1e-14, 1e-14)])
    # zero-area boxes: a zero union gives 0
    @example([BBox(0, 0, 0, 0), BBox(1, 1, 0, 5)], [BBox(0, 0, 0, 0), BBox(1, 1, 5, 0)])
    # disjoint, touching and nested boxes
    @example([BBox(0, 0, 1, 1), BBox(0, 0, 10, 10)], [BBox(5, 5, 1, 1), BBox(1, 0, 1, 1)])
    # x = w = -0.0 gives right = -0.0 and an intersection width of -0.0;
    # Python's max(0.0, -0.0) keeps 0.0, np.maximum would return -0.0
    @example([BBox(0.0, 0.0, 1.0, 1.0)], [BBox(-0.0, 0.0, -0.0, 1.0)])
    # x + w overflows to inf: NaN (inf * 0), 1.0 and 1e-300, as the scalar gives
    @example(
        [BBox(1e308, 0, 1e308, 1e-300)],
        [BBox(1e308, 5, 1e308, 1e-300), BBox(1e308, 0, 1e308, 1e-300), BBox(1e308, 0, 1e308, 1)],
    )
    def test_equals_scalar_bit_for_bit(self, a, b):
        got = iou_matrix(as_xywh(a), as_xywh(b))
        want = np.array([[iou(p, q) for q in b] for p in a]).reshape(len(a), len(b))
        assert got.dtype == np.float64 and got.shape == (len(a), len(b))
        assert got.tobytes() == want.tobytes()

    def test_empty_sides(self):
        b = as_xywh([BBox(0, 0, 1, 1), BBox(2, 2, 1, 1)])
        assert iou_matrix(np.zeros((0, 4)), b).shape == (0, 2)
        assert iou_matrix(b, np.zeros((0, 4))).shape == (2, 0)
        assert iou_matrix(as_xywh([]), as_xywh([])).shape == (0, 0)


@pytest.mark.parametrize("field", ["x", "y", "w", "h"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_bbox_rejects_nonfinite(field, value):
    kw = {"x": 0.0, "y": 0.0, "w": 1.0, "h": 1.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        BBox(**kw)


class TestDepthMap:
    def test_uniform(self):
        d = DepthMap(4, 3, np.full(12, 5.0))
        assert d.values.shape == (3, 4)
        assert d.values[0, 0] == 5.0
        assert d.values[2, 3] == 5.0

    def test_row_major_layout(self):
        w, h = 7, 5
        vals = np.array([u + v for v in range(h) for u in range(w)], dtype=float)
        d = DepthMap(w, h, vals)
        assert d.values[3, 2] == 5.0

    @given(st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
    def test_matches_bruteforce_layout(self, w, h, rnd):
        vals = [rnd.uniform(0.1, 9.0) for _ in range(w * h)]
        d = DepthMap(w, h, np.array(vals))
        for v in range(h):
            for u in range(w):
                assert d.values[v, u] == pytest.approx(vals[v * w + u], rel=1e-6)


def test_pixel_grid_floor_ceil():
    u0, u1, v0, v1 = pixel_grid(BBox(10.2, 4.9, 3.0, 2.0), INTR)
    assert (u0, u1, v0, v1) == (10, 14, 4, 7)


class TestPinhole:
    def test_principal_point_on_axis(self):
        assert INTR.ray(INTR.p_u, INTR.p_v) == (0.0, 0.0)

    def test_direct_evaluation(self):
        assert INTR.ray(1460, INTR.p_v) == (0.5, 0.0)
        assert INTR.pixel(5.0, 0.0, 10.0) == (1460.0, INTR.p_v)

    def test_linear_in_depth(self):
        # every point of a pixel's ray projects back to that pixel
        x, y = INTR.ray(1200, 700)
        assert INTR.pixel(4.0 * x, 4.0 * y, 4.0) == pytest.approx(INTR.pixel(8.0 * x, 8.0 * y, 8.0))

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(0)
        u, v, z = rng.uniform(0, 1920, 50), rng.uniform(0, 1080, 50), rng.uniform(0.1, 100.0, 50)
        x, y = INTR.ray(u, v)
        pu, pv = INTR.pixel(x * z, y * z, z)
        for k in range(50):
            assert (x[k], y[k]) == INTR.ray(float(u[k]), float(v[k]))
            assert (pu[k], pv[k]) == INTR.pixel(float(x[k] * z[k]), float(y[k] * z[k]), float(z[k]))

    @given(st.floats(0, 1919), st.floats(0, 1079), st.floats(0.1, 100.0))
    def test_pixel_inverts_ray(self, u, v, z):
        x, y = INTR.ray(u, v)
        u2, v2 = INTR.pixel(x * z, y * z, z)
        assert u2 == pytest.approx(u, abs=1e-9)
        assert v2 == pytest.approx(v, abs=1e-9)


def test_motion_transform_singular_rejected():
    from areatrack.errors import SingularTransform

    m = np.eye(3)
    m[0, 0] = 0.0
    m[1, 1] = 0.0
    m[0, 1] = 0.0
    m[1, 0] = 0.0
    with pytest.raises(SingularTransform):
        MotionTransform(m)


class TestMotionFit:
    def test_recovers_exact_affine(self):
        src = np.random.default_rng(0).uniform(0, 640, (30, 2))
        m = np.array([[1.02, -0.03, 12.5], [0.01, 0.97, -7.25], [0.0, 0.0, 1.0]])
        fit = MotionTransform.fit(src, src @ m[:2, :2].T + m[:2, 2])
        assert np.allclose(fit.m, m, rtol=0.0, atol=1e-9)

    def test_collinear_points_give_none(self):
        t = np.arange(10.0)
        src = np.column_stack([t, 2.0 * t + 1.0])
        assert MotionTransform.fit(src, src + 5.0) is None

    def test_singular_linear_part_gives_none(self):
        # full-rank points, but the fitted 2x2 part has determinant 1e-12
        src = np.random.default_rng(1).uniform(0, 640, (20, 2))
        x, y = src.T
        assert MotionTransform.fit(src, np.column_stack([x, x + 1e-12 * y])) is None


def test_motion_transform_roundtrip():
    t = MotionTransform.translation(5, -3)
    assert t.apply_point(10, 10) == pytest.approx((15, 7))
