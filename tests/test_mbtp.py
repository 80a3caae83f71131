import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areatrack.errors import EmptyRegion, FoldedRegion, NoValidDepth, OversizedBox
from areatrack.geometry import BBox, CameraIntrinsics, DepthMap, as_xywh, pixel_grid
from areatrack.mbtp import (
    ELLIPSE_FACTOR,
    AreaEstimate,
    ProjectedRegion,
    _edge_sum,
    _rays,
    estimate_area,
    estimate_areas,
    project_region,
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


Point2 = tuple[float, float]


def triangle_area(p1: Point2, p2: Point2, p3: Point2) -> float:
    """Half the cross product of two edge vectors: the signed area,
    positive when p1, p2, p3 turn from +x towards +y."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return 0.5 * ((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))


def patch_area(r: ProjectedRegion, u: int, v: int) -> float | None:
    """Signed area of the 2x2 patch anchored at image pixel (u, v): the
    shoelace area of its back-projected corners in cyclic order TL, TR,
    BR, BL, split into triangles (TL, TR, BR) and (TL, BR, BL). None
    (skipped) when any corner is invalid. The estimator's reference."""
    i = v - r.v0
    j = u - r.u0
    h, w = r.shape
    if not (0 <= i < h - 1 and 0 <= j < w - 1):
        raise IndexError(f"patch ({u}, {v}) outside region grid")
    if not (r.valid[i, j] and r.valid[i, j + 1] and r.valid[i + 1, j] and r.valid[i + 1, j + 1]):
        return None
    tl = (r.X[i, j], r.Y[i, j])
    tr = (r.X[i, j + 1], r.Y[i, j + 1])
    br = (r.X[i + 1, j + 1], r.Y[i + 1, j + 1])
    bl = (r.X[i + 1, j], r.Y[i + 1, j])
    return triangle_area(tl, tr, br) + triangle_area(tl, br, bl)


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

    def test_signed(self):
        assert triangle_area((0, 0), (0, 3), (2, 0)) == -3.0


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

    def test_split_follows_the_cyclic_order(self):
        # the quad TL, TR, BR, BL of a non-parallelogram: a split of the
        # raster-order corners TL, TR, BL, BR as if they were cyclic
        # misses part of it
        vals = np.full((1080, 1920), 3.0, np.float32)
        vals[541, 961] = 3.3
        r = project_region(BBox(960, 540, 2, 2), DepthMap(1920, 1080, vals), INTR)
        quad = [(r.X[0, 0], r.Y[0, 0]), (r.X[0, 1], r.Y[0, 1]),
                (r.X[1, 1], r.Y[1, 1]), (r.X[1, 0], r.Y[1, 0])]
        tl, tr, br, bl = quad
        raster_split = abs(triangle_area(tl, tr, bl)) + abs(triangle_area(tl, bl, br))
        assert patch_area(r, 960, 540) == pytest.approx(shoelace(quad), rel=1e-12)
        assert raster_split == pytest.approx(0.95 * shoelace(quad), rel=0.01)


def reference_patch_areas(r: ProjectedRegion) -> tuple[np.ndarray, np.ndarray]:
    """``patch_area`` at every patch of the region, vectorised in its
    operation order, and the mask of patches with four valid corners."""
    X, Y, valid = r.X, r.Y, r.valid
    tl = X[:-1, :-1], Y[:-1, :-1]
    tr = X[:-1, 1:], Y[:-1, 1:]
    br = X[1:, 1:], Y[1:, 1:]
    bl = X[1:, :-1], Y[1:, :-1]
    ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    return triangle_area(tl, tr, br) + triangle_area(tl, br, bl), ok


def reference_scale(areas: np.ndarray, ok: np.ndarray) -> float:
    """The sum of the absolute areas of the valid patches, times pi/4: the
    scale of the rounding in any order of summing them, and the area
    itself when no patch folds over."""
    return float(np.abs(areas[ok]).sum()) * ELLIPSE_FACTOR


class TestPatchAreasKernel:
    """The vectorised oracle against ``patch_area`` at every patch, and
    the estimator against the oracle's sum."""

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
        d = DepthMap(1920, 1080, vals)
        r = project_region(b, d, INTR)
        assert r.shape == (h, w)
        got, ok = reference_patch_areas(r)
        assert got.shape == ok.shape == (h - 1, w - 1)
        want = [patch_area(r, u, v)
                for v in range(r.v0, r.v0 + h - 1) for u in range(r.u0, r.u0 + w - 1)]
        assert ok.ravel().tolist() == [a is not None for a in want]
        assert got[ok].tobytes() == np.array([a for a in want if a is not None], float).tobytes()
        if not ok.any():
            with pytest.raises(NoValidDepth):
                estimate_area(b, d, INTR)
        elif got[ok].sum() <= 0.0 < ok.sum():  # 6% depth noise folds some boxes far off-axis
            with pytest.raises(FoldedRegion, match=f"its {ok.sum()} valid patches"):
                estimate_area(b, d, INTR)
        else:
            est = estimate_area(b, d, INTR)
            assert est.valid_patch_count == ok.sum()
            want = got[ok].sum() * ELLIPSE_FACTOR
            assert abs(est.area_m2 - want) <= 1e-12 * reference_scale(got, ok)


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
            with pytest.raises(NoValidDepth, match="^the box has no 2x2 patch of valid depth$"):
                estimate_area(b, d, INTR)

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
    z = float(d.values[v, u])
    if not (math.isfinite(z) and z > 0.0):
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


def reference_estimate_area(
    b: BBox, d: DepthMap, intr: CameraIntrinsics
) -> tuple[AreaEstimate, float]:
    """The one-box estimator patch by patch, and its ``reference_scale``:
    skip a box larger than the image, project the box, take the centre
    distance, sum ``patch_area`` over the valid patches, and skip a box
    with no valid patch or whose sum is not positive."""
    if b.w > intr.width or b.h > intr.height:
        raise OversizedBox(f"the box is larger than the {intr.width}x{intr.height} image")
    region = project_region(b, d, intr)
    dist = reference_center_distance(b, d, intr)
    h, w = region.shape
    total = (h - 1) * (w - 1)
    areas, ok = reference_patch_areas(region)
    count = int(ok.sum())
    if count == 0:
        raise NoValidDepth("the box has no 2x2 patch of valid depth")
    area = float(areas[ok].sum()) * ELLIPSE_FACTOR
    if area <= 0.0:
        raise FoldedRegion(f"the signed area of its {count} valid patches is not positive: "
                           "the back-projected box folds over")
    return AreaEstimate(area, count, total, dist), reference_scale(areas, ok)


def _outcome(est):
    """Everything an estimate, distance or skip carries, floats as their exact bits."""
    if isinstance(est, Exception):
        return type(est).__name__, str(est)
    if isinstance(est, float):
        return est.hex()
    return (est.area_m2.hex(), est.valid_patch_count, est.total_patch_count,
            est.distance_m.hex())


SKIPS = (OversizedBox, EmptyRegion, NoValidDepth, FoldedRegion)


def _try(f, *args):
    """``_outcome`` of ``f(*args)``, or of the skip it raises."""
    try:
        return _outcome(f(*args))
    except SKIPS as e:
        return _outcome(e)


def assert_matches_reference(boxes: list[BBox], d: DepthMap, intr: CameraIntrinsics):
    """``estimate_areas`` equals ``estimate_area`` bit for bit, and the
    patch-by-patch reference in everything but the area's last bits: the
    areas differ by at most 1e-12 of the ``reference_scale``."""
    got = estimate_areas(as_xywh(boxes), d, intr)
    assert [_try(estimate_area, b, d, intr) for b in boxes] == [_outcome(e) for e in got]
    for b, est in zip(boxes, got):
        try:
            with np.errstate(invalid="ignore"):  # project_region warns on 0 * inf
                want, scale = reference_estimate_area(b, d, intr)
        except SKIPS as e:
            assert _outcome(est) == _outcome(e)
            continue
        assert _outcome(est)[1:] == _outcome(want)[1:]
        assert est.valid_patch_count > 0
        assert abs(est.area_m2 - want.area_m2) <= 1e-12 * scale
    assert ([_try(center_distance, b, d, intr) for b in boxes]
            == [_try(reference_center_distance, b, d, intr) for b in boxes])


# a small image, so that many boxes reach past its edges
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
    """``estimate_areas`` against ``estimate_area`` bit for bit, and
    against the patch-by-patch reference: both patch counts, distance, the
    type and text of every skip, and the area to 1e-12."""

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
        vals[60:62, 151] = 3.0  # the right column of a 2x2 box lands left of its left column
        d = DepthMap(SMALL_W, SMALL_H, vals)
        intr = CameraIntrinsics(300.0, 320.0, 85.5, 54.0, SMALL_W, SMALL_H)
        boxes = [
            BBox(45.0, 45.0, 10.0, 10.0),  # invalid centre pixel: median fallback
            BBox(101.0, 11.0, 10.0, 5.0),  # no valid depth at all
            BBox(0.0, 30.0, 1e308, 4.0),  # wider than the image
            BBox(-5.0, -5.0, 12.0, 9.0),  # clipped at the left and top edges
            BBox(160.0, 100.0, 30.0, 30.0),  # clipped at the right and bottom edges
            BBox(200.0, 20.0, 5.0, 5.0),  # off the image
            BBox(20.0, 20.0, 0.0, 5.0),  # zero width
            BBox(30.0, 30.0, 1.0, 30.0),  # one pixel wide
            BBox(30.0, 30.0, 30.0, 1.0),  # one pixel tall
            BBox(1.0, 1.0, 168.0, 108.0),  # nearly the whole image
            *(BBox(3.0 * k, 2.0 * k, 20.0 + k, 25.0) for k in range(30)),
            BBox(135.0, 0.0, 10.0, 10.0),  # an inf depth pixel
            BBox(100.0, 30.0, 100.0, 4.0),  # far edge clipped to the image width
            BBox(150.0, 60.0, 2.0, 2.0),  # folds over
        ]
        got = estimate_areas(as_xywh(boxes), d, intr)
        assert got[0].valid_patch_count > 0
        assert isinstance(got[1], NoValidDepth)
        assert _outcome(got[2]) == ("OversizedBox", "the box is larger than the 170x110 image")
        assert [type(e) for e in got[5:7]] == [EmptyRegion, EmptyRegion]
        assert [_outcome(e) for e in got[7:9]] == [
            ("NoValidDepth", "the box has no 2x2 patch of valid depth")] * 2
        assert got[-2].total_patch_count == (SMALL_W - 100 - 1) * 3
        assert _outcome(got[-1]) == ("FoldedRegion", "the signed area of its 1 valid patches is "
                                     "not positive: the back-projected box folds over")
        assert_matches_reference(boxes, d, intr)

    def test_no_boxes(self):
        assert estimate_areas(np.empty((0, 4)), uniform_depth(5.0), INTR) == []


class TestSignedSum:
    @given(blocks=st.lists(st.tuples(st.integers(0, 1918), st.integers(0, 1078),
                                     st.integers(2, 300), st.integers(2, 300)),
                           min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_border_sum_is_the_edge_sum_of_a_valid_block(self, blocks, seed):
        # the border sum of each block, measured alone and with the others
        rng = np.random.default_rng(seed)
        vals = np.full((1080, 1920), 6.0, np.float32)
        boxes = []
        for u0, v0, w, h in blocks:
            w, h = min(w, 1920 - u0), min(h, 1080 - v0)
            vals[v0:v0 + h, u0:u0 + w] = 6.0 * (1.0 + 1e-4 * rng.standard_normal((h, w)))
            boxes.append(BBox(float(u0), float(v0), float(w), float(h)))
        d = DepthMap(1920, 1080, vals)
        together = estimate_areas(as_xywh(boxes), d, INTR)
        for b, est in zip(boxes, together):
            (u0, u1, v0, v1), (w, h) = pixel_grid(b, INTR), (int(b.w), int(b.h))
            xhat, yhat = (t[a:a + n] for t, a, n in zip(_rays(INTR), (u0, v0), (w, h)))
            edge = _edge_sum(d.values[v0:v1, u0:u1], np.ones((h - 1, w - 1), bool), xhat, yhat)
            for got in (est, estimate_area(b, d, INTR)):
                assert got.valid_patch_count == got.total_patch_count == (h - 1) * (w - 1)
                assert got.area_m2 > 0.0
                assert got.area_m2 == pytest.approx(0.5 * edge * ELLIPSE_FACTOR, rel=1e-12, abs=0.0)

    def test_fold_over_is_a_named_skip(self):
        # 600 px right of the principal point, the right column at half the
        # depth lands left of the left column: each patch is mirrored
        vals = np.full((1080, 1920), 6.0, np.float32)
        vals[:, 1561] = 3.0
        d = DepthMap(1920, 1080, vals)
        b = BBox(1560.0, 500.0, 2.0, 40.0)
        with pytest.raises(FoldedRegion, match="^the signed area of its 39 valid patches is not "
                                               "positive: the back-projected box folds over$"):
            estimate_area(b, d, INTR)
        assert estimate_area(BBox(1559.0, 500.0, 2.0, 40.0), d, INTR).area_m2 > 0.0

    @pytest.mark.parametrize("noise", [0.004, 0.01, 0.03])
    def test_depth_noise_averages_out(self, noise):
        # a sum of absolute patch areas folds i.i.d. depth noise into area:
        # +1.3%, +24% and +169% on this box. The signed sum's error has a
        # spread of about 0.07 x the noise (seeds 0-9 at 3%: -0.41% to +0.15%)
        b = BBox(860.0, 440.0, 200.0, 200.0)
        clean = estimate_area(b, uniform_depth(6.0), INTR).area_m2
        vals = np.full((1080, 1920), 6.0)
        rng = np.random.default_rng(0)
        vals[440:640, 860:1060] *= 1.0 + noise * rng.standard_normal((200, 200))
        noisy = estimate_area(b, DepthMap(1920, 1080, vals.astype(np.float32)), INTR)
        assert noisy.valid_patch_count == 199 * 199
        assert noisy.area_m2 == pytest.approx(clean, rel=0.005)


# a 320 x 200 frame: columns 0-199 valid everywhere, and to their right a
# holed block, a block without depth and a column that folds 2 px boxes
MIXED_W, MIXED_H = 320, 200
MIXED_INTR = CameraIntrinsics(300.0, 320.0, 85.5, 100.0, MIXED_W, MIXED_H)


@st.composite
def mixed_boxes(draw):
    """One box of each kind, then more of random kinds, on a frame whose
    valid columns hold lines longer than numpy's 128-term summation block."""
    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    frac = st.sampled_from([0.0, 0.25, 0.5])  # a 0.5 px side from here covers one pixel

    def box(kind):
        if kind == "valid":
            u0, v0 = ints(0, 198), ints(0, MIXED_H - 2)
            return BBox(u0, v0, ints(2, 200 - u0), ints(2, MIXED_H - v0))
        if kind == "holed":
            u0, v0 = ints(200, 240), ints(0, 40)
            return BBox(u0, v0, ints(2, 250 - u0), ints(2, 50 - v0))
        if kind == "thin":  # one pixel wide or tall, anywhere on the image
            x, y = ints(0, MIXED_W - 1) + draw(frac), ints(0, MIXED_H - 1) + draw(frac)
            return BBox(x, y, 0.5, ints(1, 60)) if draw(st.booleans()) else BBox(x, y, ints(1, 60), 0.5)
        if kind == "folded":
            return BBox(250.0, ints(60, 90), 2.0, ints(2, 10))
        if kind == "empty":
            return draw(st.sampled_from([BBox(ints(0, 300), ints(0, 190), 0.0, 5.0),
                                         BBox(MIXED_W + 5.0, 20.0, 5.0, 5.0),
                                         BBox(-30.0, ints(0, 190), 10.0, 4.0)]))
        u0, v0 = ints(260, 300), ints(120, 180)  # no depth
        return BBox(u0, v0, ints(1, 310 - u0), ints(1, 190 - v0))

    kinds = ["valid", "holed", "thin", "folded", "empty", "no depth"]
    kinds += draw(st.lists(st.sampled_from(kinds), max_size=30))
    return [(k, box(k)) for k in kinds]


def mixed_depth(seed: int) -> DepthMap:
    rng = np.random.default_rng(seed)
    vals = 6.0 * (1.0 + 1e-3 * rng.standard_normal((MIXED_H, MIXED_W)))
    holed = vals[0:50, 200:250]
    holes = rng.random(holed.shape) < 0.2
    holed[holes] = rng.choice([np.nan, np.inf, -np.inf, -1.0, 0.0], size=int(holes.sum()))
    vals[60:100, 251] = 1.0  # 165 px right of the principal point: lands left of column 250
    vals[120:190, 260:310] = np.nan
    return DepthMap(MIXED_W, MIXED_H, vals.astype(np.float32))


class TestBatchInvariance:
    """A box's entry has the same bits whether it is measured alone, with
    its frame, or with its frame in another order."""

    @given(mixed_boxes(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_alone_whole_and_shuffled(self, kinds_boxes, seed, random):
        d = mixed_depth(seed)
        kinds, boxes = zip(*kinds_boxes)
        alone = [_outcome(estimate_areas(as_xywh([b]), d, MIXED_INTR)[0]) for b in boxes]
        assert [_outcome(e) for e in estimate_areas(as_xywh(boxes), d, MIXED_INTR)] == alone
        order = list(range(len(boxes)))
        random.shuffle(order)
        shuffled = estimate_areas(as_xywh([boxes[i] for i in order]), d, MIXED_INTR)
        assert [_outcome(e) for e in shuffled] == [alone[i] for i in order]
        # every kind is what its name says; a holed box may have any outcome
        for kind, b, got in zip(kinds, boxes, alone):
            if kind == "valid":
                assert len(got) == 4 and got[1] == got[2] == (int(b.w) - 1) * (int(b.h) - 1) > 0
            elif kind == "thin":
                assert got[0] in ("EmptyRegion", "NoValidDepth")
            elif kind != "holed":
                want = {"folded": "FoldedRegion", "empty": "EmptyRegion", "no depth": "NoValidDepth"}
                assert got[0] == want[kind]
