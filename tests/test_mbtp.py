import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areatrack import mbtp
from areatrack.errors import EmptyRegion, NoValidDepth
from areatrack.geometry import BBox, CameraIntrinsics, DepthMap, as_xywh, pixel_grid
from areatrack.mbtp import (
    ELLIPSE_FACTOR,
    AreaEstimate,
    _patch_areas,
    estimate_area,
    estimate_areas,
    patch_area,
    project_region,
    triangle_area,
)
from areatrack.projection import center_distance

INTR = CameraIntrinsics(f_u=1000.0, f_v=1000.0, p_u=960.0, p_v=540.0, width=1920, height=1080)


def uniform_depth(z: float) -> DepthMap:
    return DepthMap(1920, 1080, np.full((1080, 1920), z, np.float32))


def shoelace(pts) -> float:
    # independent polygon-area oracle
    s = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


class TestProjectRegion:
    def test_grid_spacing(self):
        d = uniform_depth(1.0)
        r = project_region(BBox(100, 100, 2, 2), d, INTR)
        assert r.shape == (2, 2)
        assert r.X[0, 1] - r.X[0, 0] == pytest.approx(0.001)
        assert r.Y[1, 0] - r.Y[0, 0] == pytest.approx(0.001)
        assert r.valid.all()

    def test_outside_image(self):
        with pytest.raises(EmptyRegion):
            project_region(BBox(5000, 5000, 10, 10), uniform_depth(1.0), INTR)

    def test_single_invalid_marker(self):
        vals = np.full((1080, 1920), 3.0, np.float32)
        vals[101, 102] = np.nan
        d = DepthMap(1920, 1080, vals)
        r = project_region(BBox(100, 100, 5, 5), d, INTR)
        assert (~r.valid).sum() == 1
        assert not r.valid[1, 2]


class TestTriangleArea:
    def test_right_triangle(self):
        assert triangle_area((0, 0), (2, 0), (0, 3)) == 3.0

    def test_collinear(self):
        assert triangle_area((0, 0), (1, 1), (2, 2)) == 0.0

    def test_matches_shoelace(self):
        pts = [(0.2, 0.1), (1.3, 0.4), (0.7, 2.0)]
        assert triangle_area(*pts) == pytest.approx(shoelace(pts))


class TestPatchArea:
    def test_constant_depth_closed_form(self):
        z = 3.0
        d = uniform_depth(z)
        r = project_region(BBox(200, 200, 10, 10), d, INTR)
        expect = z * z / (INTR.f_u * INTR.f_v)
        for u in range(200, 209):
            for v in range(200, 209):
                assert patch_area(r, u, v) == pytest.approx(expect, rel=1e-12)

    def test_invalid_vertex_skipped(self):
        vals = np.full((1080, 1920), 3.0, np.float32)
        vals[205, 205] = np.nan
        d = DepthMap(1920, 1080, vals)
        r = project_region(BBox(200, 200, 10, 10), d, INTR)
        assert patch_area(r, 205, 205) is None
        assert patch_area(r, 204, 205) is None
        assert patch_area(r, 200, 200) is not None

    def test_ramp_plane_analytic(self):
        # depth linear in v: Z = z0 + s * (v - p_v) / f_v * Z  =>  surface
        # z = z0 / (1 - s*yhat); compare each patch against the analytic
        # projected surface element integrated over the patch footprint
        z0, s = 5.0, 0.2
        vs = np.arange(1080)
        yhat = (vs - INTR.p_v) / INTR.f_v
        col = z0 / (1.0 - s * yhat)
        vals = np.tile(col[:, None], (1, 1920)).astype(np.float64)
        d = DepthMap(1920, 1080, vals)
        r = project_region(BBox(900, 500, 30, 30), d, INTR)
        for (u, v) in [(900, 500), (910, 515), (925, 528)]:
            got = patch_area(r, u, v)
            # exact projected quad area via the shoelace oracle
            i, j = v - r.v0, u - r.u0
            quad = [
                (r.X[i, j], r.Y[i, j]),
                (r.X[i, j + 1], r.Y[i, j + 1]),
                (r.X[i + 1, j + 1], r.Y[i + 1, j + 1]),
                (r.X[i + 1, j], r.Y[i + 1, j]),
            ]
            assert got == pytest.approx(shoelace(quad), rel=1e-9)
            # analytic footprint: dX = Z/f_u du; dY spans between rows
            za = float(vals[v, 0])
            zb = float(vals[v + 1, 0])
            width_avg = 0.5 * (za + zb) / INTR.f_u
            ya = (v - INTR.p_v) / INTR.f_v * za
            yb = (v + 1 - INTR.p_v) / INTR.f_v * zb
            assert got == pytest.approx(width_avg * (yb - ya), rel=1e-5)


def reference_patch_areas(r):
    """The plain triangle-pair formula, one temporary per operation."""
    X, Y, valid = r.X, r.Y, r.valid
    x0, y0 = X[:-1, :-1], Y[:-1, :-1]
    x1, y1 = X[:-1, 1:], Y[:-1, 1:]
    x2, y2 = X[1:, :-1], Y[1:, :-1]
    x3, y3 = X[1:, 1:], Y[1:, 1:]
    tri1 = 0.5 * np.abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    tri2 = 0.5 * np.abs((x2 - x0) * (y3 - y0) - (y2 - y0) * (x3 - x0))
    ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    return tri1 + tri2, ok


class TestPatchAreasKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("holes", ["none", "some", "all"])
    @pytest.mark.parametrize("size", [(1, 40), (40, 1), (1, 1), (2, 2), (37, 53), (200, 200)])
    def test_bit_identical_to_plain_formula(self, seed, holes, size):
        rng = np.random.default_rng(seed)
        vals = (5.0 + 0.3 * rng.standard_normal((1080, 1920))).astype(np.float32)
        if holes == "some":
            vals[rng.random(vals.shape) < 0.05] = np.nan
            vals[rng.random(vals.shape) < 0.02] = -1.0
        elif holes == "all":
            vals[:] = np.nan
        w, h = size
        b = BBox(float(rng.integers(0, 1700)), float(rng.integers(0, 850)), w, h)
        r = project_region(b, DepthMap(1920, 1080, vals), INTR)
        assert r.shape == (h, w)
        got, ok = _patch_areas(r.X, r.Y, r.valid)
        want, want_ok = reference_patch_areas(r)
        assert got.shape == want.shape == (h - 1, w - 1)
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(got, want, equal_nan=True)
        assert got[ok].tobytes() == want[ok].tobytes()
        assert got[ok].sum().tobytes() == want[ok].sum().tobytes()
        if holes == "all":
            assert not ok.any()


class TestEstimateArea:
    def test_fronto_parallel_closed_form(self):
        z = 5.0
        est = estimate_area(BBox(900, 500, 100, 100), uniform_depth(z), INTR)
        expect = ELLIPSE_FACTOR * (99 * z / 1000.0) ** 2
        assert est.area_m2 == pytest.approx(expect, rel=1e-9)
        assert est.valid_patch_count == 99 * 99
        assert est.total_patch_count == 99 * 99

    def test_depth_doubling_quadruples_area(self):
        b = BBox(900, 500, 80, 60)
        a1 = estimate_area(b, uniform_depth(5.0), INTR).area_m2
        a2 = estimate_area(b, uniform_depth(10.0), INTR).area_m2
        assert a2 == pytest.approx(4.0 * a1, rel=1e-9)

    def test_one_pixel_wide_box(self):
        # also a box whose only valid pixel cannot complete a 2x2 patch
        one_valid = np.full((1080, 1920), np.nan, np.float32)
        one_valid[100, 100] = 4.0
        for b, d in [
            (BBox(100, 100, 1, 50), uniform_depth(5.0)),
            (BBox(99, 99, 4, 4), DepthMap(1920, 1080, one_valid)),
        ]:
            est = estimate_area(b, d, INTR)
            assert est.area_m2 == 0.0
            assert est.valid_patch_count == 0

    def test_scale_law_random_depths(self):
        rng = np.random.default_rng(7)
        b = BBox(800, 400, 50, 40)
        for _ in range(20):
            z = float(rng.uniform(1.0, 30.0))
            a1 = estimate_area(b, uniform_depth(z), INTR).area_m2
            a2 = estimate_area(b, uniform_depth(2 * z), INTR).area_m2
            assert a2 == pytest.approx(4.0 * a1, rel=1e-9)

    def test_monotone_in_box_size(self):
        d = uniform_depth(6.0)
        prev = 0.0
        for size in (10, 20, 40, 80):
            a = estimate_area(BBox(500, 300, size, size), d, INTR).area_m2
            assert a >= prev
            prev = a

    def test_translation_invariance(self):
        d = uniform_depth(6.0)
        ref = estimate_area(BBox(500, 300, 40, 40), d, INTR).area_m2
        for (dx, dy) in [(200, 0), (0, 150), (-300, 100)]:
            a = estimate_area(BBox(500 + dx, 300 + dy, 40, 40), d, INTR).area_m2
            assert a == pytest.approx(ref, rel=0.01)

    def test_holes_reduce_patch_count_not_crash(self):
        vals = np.full((1080, 1920), 5.0, np.float32)
        vals[510:520, 910:920] = np.nan
        d = DepthMap(1920, 1080, vals)
        est = estimate_area(BBox(900, 500, 50, 50), d, INTR)
        assert est.valid_patch_count < est.total_patch_count
        assert est.area_m2 > 0.0
        assert np.isfinite(est.area_m2)


def reference_center_distance(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> float:
    """The scalar centre distance: the box clipped to [0, width-1] x
    [0, height-1], its rounded centre pixel at that pixel's depth, or at
    the median of the valid depths inside the box when it has none."""
    x0, x1 = (min(max(t, 0.0), intr.width - 1.0) for t in (b.x, b.right))
    y0, y1 = (min(max(t, 0.0), intr.height - 1.0) for t in (b.y, b.bottom))
    u = min(max(int(round(x0 + max(0.0, x1 - x0) / 2.0)), 0), intr.width - 1)
    v = min(max(int(round(y0 + max(0.0, y1 - y0) / 2.0)), 0), intr.height - 1)
    z = d.depth_at(u, v)
    if z is None:
        u0, u1, v0, v1 = pixel_grid(b, intr)
        if u0 >= u1 or v0 >= v1:
            raise NoValidDepth("box does not intersect the image")
        patch = d.values[v0:v1, u0:u1]
        valid = patch[np.isfinite(patch) & (patch > 0.0)]
        if valid.size == 0:
            raise NoValidDepth("no valid depth inside the box")
        z = float(np.median(valid))
    x, y = intr.ray(u, v)
    X, Y = x * z, y * z
    return math.sqrt(X * X + Y * Y + z * z)


def reference_estimate_area(b: BBox, d: DepthMap, intr: CameraIntrinsics) -> AreaEstimate:
    """The one-box estimator: project the box, take the centre distance,
    run the patch kernel on the region alone and sum its valid areas."""
    region = project_region(b, d, intr)
    dist = reference_center_distance(b, d, intr)
    h, w = region.shape
    total = max(0, (h - 1)) * max(0, (w - 1))
    areas, ok = _patch_areas(region.X, region.Y, region.valid)
    count = int(ok.sum())
    if count == 0:
        return AreaEstimate(0.0, 0, total, dist)
    area = float(areas[ok].sum()) * ELLIPSE_FACTOR
    return AreaEstimate(area, count, total, dist)


def _outcome(est):
    """Everything an estimate, distance or skip carries, floats as their exact bits."""
    if isinstance(est, Exception):
        return type(est).__name__, str(est)
    if isinstance(est, float):
        return est.hex()
    return (est.area_m2.hex(), est.valid_patch_count, est.total_patch_count,
            est.distance_m.hex())


def _try(f, *args):
    """``_outcome`` of ``f(*args)``, or of the skip it raises."""
    try:
        return _outcome(f(*args))
    except (EmptyRegion, NoValidDepth) as e:
        return _outcome(e)


def assert_matches_reference(boxes: list[BBox], d: DepthMap, intr: CameraIntrinsics):
    with np.errstate(invalid="ignore"):  # project_region warns on 0 * inf
        want = [_try(reference_estimate_area, b, d, intr) for b in boxes]
    assert [_outcome(e) for e in estimate_areas(as_xywh(boxes), d, intr)] == want
    assert [_try(estimate_area, b, d, intr) for b in boxes] == want
    assert ([_try(center_distance, b, d, intr) for b in boxes]
            == [_try(reference_center_distance, b, d, intr) for b in boxes])


# an image of more than CANVAS_PX pixels, so a box near its size gets a canvas of its own
SMALL_W, SMALL_H = 170, 110


@st.composite
def frames(draw):
    intr = CameraIntrinsics(
        f_u=draw(st.floats(50.0, 2000.0)), f_v=draw(st.floats(50.0, 2000.0)),
        p_u=draw(st.floats(0.0, SMALL_W - 1.0)), p_v=draw(st.floats(0.0, SMALL_H - 1.0)),
        width=SMALL_W, height=SMALL_H,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.5, 40.0, (SMALL_H, SMALL_W))
    hole_frac = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    holes = rng.random(vals.shape) < hole_frac
    vals[holes] = rng.choice([np.nan, np.inf, -np.inf, -1.0, 0.0], size=int(holes.sum()))
    x, y = (st.one_of(st.floats(0.0, n), st.floats(-60.0, n + 60.0)) for n in (SMALL_W, SMALL_H))
    size = st.one_of(
        st.sampled_from([0.0, 1.0, 1e308]),
        st.floats(0.0, 3.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.floats(0.0, 200.0),
    )
    boxes = draw(st.lists(st.builds(BBox, x, y, size, size), max_size=40))
    return boxes, DepthMap(SMALL_W, SMALL_H, vals.astype(np.float32)), intr


class TestEstimateAreasEqualsOneBox:
    """``estimate_areas`` against the one-box reference, bit for bit: area,
    both patch counts, distance, and the type and text of every skip."""

    @given(frames())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, frame):
        assert_matches_reference(*frame)

    def test_edge_cases(self):
        vals = np.full((SMALL_H, SMALL_W), 7.0, np.float32)
        vals[50, 50] = np.nan  # the centre pixel of the fallback box
        vals[10:20, 100:120] = np.nan  # the all-invalid box
        vals[80:90, 10:20] = -2.0  # a hole inside the large box
        vals[5, 140] = np.inf
        d = DepthMap(SMALL_W, SMALL_H, vals)
        intr = CameraIntrinsics(300.0, 320.0, 85.5, 54.0, SMALL_W, SMALL_H)
        boxes = [
            BBox(45.0, 45.0, 10.0, 10.0),  # invalid centre pixel: median fallback
            BBox(101.0, 11.0, 10.0, 5.0),  # no valid depth at all
            BBox(0.0, 30.0, 1e308, 4.0),  # far edge clipped to the image width
            BBox(-5.0, -5.0, 12.0, 9.0),  # clipped at the left and top edges
            BBox(160.0, 100.0, 30.0, 30.0),  # clipped at the right and bottom edges
            BBox(200.0, 20.0, 5.0, 5.0),  # off the image
            BBox(20.0, 20.0, 0.0, 5.0),  # zero width
            BBox(30.0, 30.0, 1.0, 30.0),  # one pixel wide
            BBox(30.0, 30.0, 30.0, 1.0),  # one pixel tall
            BBox(1.0, 1.0, 168.0, 108.0),  # larger than a canvas
            *(BBox(3.0 * k, 2.0 * k, 20.0 + k, 25.0) for k in range(30)),
            BBox(135.0, 0.0, 10.0, 10.0),  # an inf depth pixel
        ]
        got = estimate_areas(as_xywh(boxes), d, intr)
        assert got[0].valid_patch_count > 0
        assert isinstance(got[1], NoValidDepth)
        assert got[2].total_patch_count == (SMALL_W - 1) * 3
        assert [type(e) for e in got[5:7]] == [EmptyRegion, EmptyRegion]
        assert got[7].total_patch_count == got[8].total_patch_count == 0
        assert 168 * 108 > mbtp.CANVAS_PX
        assert sum(b.w * b.h for b in boxes[10:40]) > mbtp.CANVAS_PX
        assert_matches_reference(boxes, d, intr)

    def test_no_boxes(self):
        assert estimate_areas(np.empty((0, 4)), uniform_depth(5.0), INTR) == []
