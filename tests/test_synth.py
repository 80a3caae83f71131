import math
import re

import numpy as np
import pytest
import yaml

from areatrack import synth
from areatrack.errors import FormatError, PotholeNeverVisible, SingularTransform
from areatrack.geometry import BBox, CameraIntrinsics
from areatrack.mbtp import estimate_area
from areatrack.synth import (
    SOLVE_MAX_ITERS,
    CameraPose,
    NoiseSpec,
    PotholeSpec,
    SceneSpec,
    Surface,
    _correspondences,
    _solve_depth,
    analytic_rect_footprint_area,
    load_scene_spec,
    pothole_surface_area,
    render,
    render_depth,
    scene_spec_from_dict,
    simulate_area_series,
)

# small frame keeps the ray caster fast in unit tests
INTR = CameraIntrinsics(f_u=300.0, f_v=300.0, p_u=160.0, p_v=120.0, width=320, height=240)


def plane_scene(z0=5.0, potholes=(), frames=1, **kw):
    return SceneSpec(
        intrinsics=INTR,
        surface=Surface(kind="plane", z0=z0, potholes=tuple(potholes)),
        frames=frames,
        **kw,
    )


class TestSurface:
    def test_plane_height(self):
        s = Surface(kind="plane", z0=4.0)
        assert s.height(np.array(1.0), np.array(2.0)) == 4.0

    def test_tilted_height_and_grad(self):
        s = Surface(kind="tilted", z0=5.0, pitch_deg=10.0)
        m = math.tan(math.radians(10.0))
        assert s.height(np.array(0.0), np.array(2.0)) == pytest.approx(5.0 + 2 * m)
        gx, gy = s.grad(np.array(0.0), np.array(2.0))
        assert float(gx) == 0.0
        assert float(gy) == pytest.approx(m)

    def test_depression_deepens_surface(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.05)
        s = Surface(kind="plane", z0=5.0, potholes=(p,))
        assert s.height(np.array(0.0), np.array(0.0)) == pytest.approx(5.05)
        # outside the rim the base plane is untouched
        assert s.height(np.array(0.5), np.array(0.0)) == pytest.approx(5.0)

    def test_grad_matches_finite_differences(self):
        p = PotholeSpec(center=(0.1, -0.05), a=0.3, b=0.2, depth=0.04)
        s = Surface(kind="undulating", z0=5.0, amplitude=0.02, wavelength=2.0, potholes=(p,))
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(20):
            x, y = rng.uniform(-0.4, 0.4, 2)
            gx, gy = s.grad(np.array(x), np.array(y))
            fx = (s.height(np.array(x + eps), np.array(y)) - s.height(np.array(x - eps), np.array(y))) / (2 * eps)
            fy = (s.height(np.array(x), np.array(y + eps)) - s.height(np.array(x), np.array(y - eps))) / (2 * eps)
            assert float(gx) == pytest.approx(float(fx), abs=1e-5)
            assert float(gy) == pytest.approx(float(fy), abs=1e-5)


def _full_array_height(surface, x, y):
    """Surface.height as a full-array formula: every depression adds a bump
    image that is zero outside its rim."""
    z = surface.base_height(x, y)
    for p in surface.potholes:
        r2 = ((x - p.center[0]) / p.a) ** 2 + ((y - p.center[1]) / p.b) ** 2
        inside = r2 < 1.0
        if np.any(inside):
            bump = np.zeros_like(z)
            r = np.sqrt(np.clip(r2, 0.0, 1.0))
            bump[inside] = np.cos(0.5 * math.pi * r[inside]) ** 2
            z = z + p.depth * bump
    return z


def _reference_depth(surface, pose, xs_hat, ys_hat, iters=SOLVE_MAX_ITERS):
    """The ray-cast fixed point after exactly `iters` steps."""
    d = np.stack([xs_hat, ys_hat, np.ones_like(xs_hat)], axis=-1) @ pose.rotation()
    cx, cy, cz = pose.position
    z = np.maximum((surface.z0 - cz) / np.maximum(d[..., 2], 1e-6), 0.1)
    for _ in range(iters):
        zs = _full_array_height(surface, cx + z * d[..., 0], cy + z * d[..., 1])
        z = (zs - cz) / np.maximum(d[..., 2], 1e-6)
    return z


def _image_rays(step=2):
    us = (np.arange(0, INTR.width, step) - INTR.p_u) / INTR.f_u
    vs = (np.arange(0, INTR.height, step) - INTR.p_v) / INTR.f_v
    return np.meshgrid(us, vs)


@pytest.fixture
def height_calls(monkeypatch):
    """Counts Surface.height calls, i.e. the ray-caster's iterations."""
    calls = []
    height = Surface.height

    def counted(self, x, y):
        calls.append(1)
        return height(self, x, y)

    monkeypatch.setattr(Surface, "height", counted)
    return calls


OVERLAPPING = (
    PotholeSpec(center=(0.0, 0.1), a=0.3, b=0.2, depth=0.05),
    PotholeSpec(center=(0.2, 0.2), a=0.25, b=0.2, depth=0.03),
)


class TestSolveDepth:
    @pytest.mark.parametrize(
        "surface, pose",
        [
            (Surface(kind="plane", z0=5.0), CameraPose()),
            (Surface(kind="tilted", z0=5.0, pitch_deg=8.0), CameraPose()),
            (Surface(kind="undulating", z0=5.0, amplitude=0.02, wavelength=2.0), CameraPose()),
            (Surface(kind="tilted", z0=5.0, pitch_deg=-6.0, potholes=OVERLAPPING), CameraPose()),
            (
                Surface(kind="tilted", z0=6.0, pitch_deg=8.0, potholes=OVERLAPPING),
                CameraPose(position=(0.1, -0.05, 0.3), pitch=0.06, yaw=-0.05, roll=0.02),
            ),
        ],
        ids=["plane", "tilted", "undulating", "tilted-overlapping", "pitched-yawed"],
    )
    def test_early_exit_matches_cap_iterations(self, surface, pose, height_calls):
        xs_hat, ys_hat = _image_rays()
        got = _solve_depth(surface, pose, xs_hat, ys_hat)
        assert len(height_calls) < SOLVE_MAX_ITERS
        ref = _reference_depth(surface, pose, xs_hat, ys_hat)
        assert np.array_equal(got.astype(np.float32), ref.astype(np.float32))

    def test_non_contracting_runs_to_cap(self, height_calls):
        # slope 2*pi*A/L ~ 12.6 along y: the iteration never settles
        surface = Surface(kind="undulating", z0=5.0, amplitude=1.0, wavelength=0.5)
        xs_hat, ys_hat = _image_rays(step=8)
        got = _solve_depth(surface, CameraPose(), xs_hat, ys_hat)
        assert len(height_calls) == SOLVE_MAX_ITERS
        assert np.array_equal(got, _reference_depth(surface, CameraPose(), xs_hat, ys_hat))
        early = _reference_depth(surface, CameraPose(), xs_hat, ys_hat, iters=SOLVE_MAX_ITERS - 1)
        assert not np.array_equal(got, early)

    def test_nan_ray_runs_to_cap(self, height_calls):
        surface = Surface(kind="tilted", z0=5.0, pitch_deg=8.0, potholes=OVERLAPPING)
        xs_hat, ys_hat = _image_rays(step=8)
        xs_hat[3, 4] = np.nan
        got = _solve_depth(surface, CameraPose(), xs_hat, ys_hat)
        assert len(height_calls) == SOLVE_MAX_ITERS
        ref = _reference_depth(surface, CameraPose(), xs_hat, ys_hat)
        assert np.isnan(got[3, 4])
        assert np.array_equal(got, ref, equal_nan=True)

    def test_empty_rays(self):
        got = _solve_depth(Surface(), CameraPose(), np.empty(0), np.empty(0))
        assert got.shape == (0,)


class TestHeightMasked:
    @pytest.mark.parametrize("kind", ["plane", "tilted", "undulating"])
    def test_equals_full_array_formula(self, kind):
        surface = Surface(kind=kind, z0=5.0, pitch_deg=7.0, amplitude=0.02, potholes=OVERLAPPING)
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.5, 0.6, (40, 50))
        y = rng.uniform(-0.3, 0.6, (40, 50))
        assert np.array_equal(surface.height(x, y), _full_array_height(surface, x, y))
        for px, py in [(0.0, 0.1), (0.1, 0.15), (0.9, 0.9), (0.2, 0.2), (0.3, 0.1)]:
            for x0, y0 in [(np.array(px), np.array(py)), (px, py)]:
                got = surface.height(x0, y0)
                assert np.ndim(got) == 0
                assert got == _full_array_height(surface, x0, y0)


class TestRenderDepth:
    def test_plane_center_pixel(self):
        d = render_depth(plane_scene(z0=5.0), 0)
        assert d.values[120, 160] == pytest.approx(5.0, abs=1e-6)

    def test_plane_off_axis_constant(self):
        # camera-frame depth of a fronto-parallel plane is z0 everywhere
        d = render_depth(plane_scene(z0=7.0), 0)
        assert d.values[10, 10] == pytest.approx(7.0, abs=1e-5)
        assert d.values[200, 300] == pytest.approx(7.0, abs=1e-5)

    def test_depression_visible_in_depth(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.05)
        d = render_depth(plane_scene(z0=5.0, potholes=[p]), 0)
        assert d.values[120, 160] == pytest.approx(5.05, abs=1e-5)

    def test_tilted_plane_depth(self):
        spec = SceneSpec(
            intrinsics=INTR, surface=Surface(kind="tilted", z0=5.0, pitch_deg=5.0), frames=1
        )
        d = render_depth(spec, 0)
        # ray through pixel v: y = yhat * z, z = z0 + tan(pitch) * y
        m = math.tan(math.radians(5.0))
        yhat = (200 - INTR.p_v) / INTR.f_v
        assert d.values[200, 160] == pytest.approx(5.0 / (1.0 - m * yhat), rel=1e-6)


def _cast_every_ray(spec, frame, rng=None):
    """The renderer before the closed-form road hit: ``_solve_depth`` over every pixel's ray."""
    xs_hat, ys_hat = _image_rays(step=1)
    z = _solve_depth(spec.surface, spec.pose(frame), xs_hat, ys_hat)
    if rng is not None:
        z = z * (1.0 + spec.noise.depth_rel_std * rng.standard_normal(z.shape))
    return z.astype(np.float32)


def _residual(spec, depth):
    """|c_z + Z d_z - height| of each pixel's ray at the rendered depth Z, and the
    closed-form denominator d_z - tan(pitch) d_y of a tilted road."""
    pose = spec.pose(0)
    cx, cy, cz = pose.position
    xs_hat, ys_hat = _image_rays(step=1)
    d = np.stack([xs_hat, ys_hat, np.ones_like(xs_hat)], axis=-1) @ pose.rotation()
    z = depth.astype(np.float64)
    dz = np.maximum(d[..., 2], 1e-6)
    with np.errstate(invalid="ignore", over="ignore"):
        res = np.abs(cz + z * dz - spec.surface.height(cx + z * d[..., 0], cy + z * d[..., 1]))
    return res, dz - math.tan(math.radians(spec.surface.pitch_deg)) * d[..., 1]


RENDER_POSES = (
    CameraPose(position=(0.1, -0.05, 0.3), pitch=0.06, yaw=-0.05, roll=0.02),
    CameraPose(position=(-0.2, 0.1, -0.4), pitch=-0.1, yaw=0.08, roll=-0.05),
    CameraPose(position=(0.0, -1.0, 0.0), pitch=0.3, yaw=0.04, roll=0.1),
)
# two overlapping depressions and one cut by the right image border
RENDER_POTHOLES = OVERLAPPING + (PotholeSpec(center=(2.6, 0.0), a=0.3, b=0.25, depth=0.04),)


class TestClosedFormRender:
    """render_depth against the old renderer, which ray-cast every pixel."""

    @pytest.mark.parametrize("pose", RENDER_POSES, ids=["pose0", "pose1", "pose2"])
    @pytest.mark.parametrize("surface", [
        Surface(kind="plane", z0=5.0, potholes=RENDER_POTHOLES),
        Surface(kind="tilted", z0=5.0, pitch_deg=8.0, potholes=RENDER_POTHOLES),
        Surface(kind="tilted", z0=5.0, pitch_deg=-8.0, potholes=RENDER_POTHOLES),
        Surface(kind="undulating", z0=5.0, amplitude=0.02, wavelength=2.0,
                potholes=RENDER_POTHOLES),
    ], ids=["plane", "tilted+8", "tilted-8", "undulating"])
    def test_same_bytes_as_casting_every_ray(self, surface, pose):
        spec = SceneSpec(intrinsics=INTR, surface=surface, camera_path=(pose,))
        got = render_depth(spec, 0).values
        assert got.tobytes() == _cast_every_ray(spec, 0).tobytes()

    def test_pothole_cut_by_the_border(self):
        spec = plane_scene(potholes=RENDER_POTHOLES)
        got = render_depth(spec, 0).values
        assert got[:, -1].max() > 5.0  # the depression reaches the last column
        assert got.tobytes() == _cast_every_ray(spec, 0).tobytes()

    def test_same_noise_draws(self):
        spec = SceneSpec(intrinsics=INTR,
                         surface=Surface(kind="tilted", z0=5.0, pitch_deg=8.0, potholes=OVERLAPPING),
                         camera_path=RENDER_POSES[:1], noise=NoiseSpec(depth_rel_std=0.005))
        got = render_depth(spec, 0, np.random.default_rng(3)).values
        assert got.tobytes() == _cast_every_ray(spec, 0, np.random.default_rng(3)).tobytes()

    def test_criterion_11_scene(self):
        spec = SceneSpec(
            intrinsics=INTR,
            surface=Surface(kind="plane", z0=6.0,
                            potholes=(PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.015),)),
            frames=8,
            camera_path=tuple(CameraPose(position=(0.0, 0.0, 0.15 * k)) for k in range(8)),
            noise=NoiseSpec(box_jitter_px=0.6, depth_rel_std=0.004, conf_noise_std=0.02),
            n_correspondences=60,
            seed=11,
        )
        # render() hands each frame's depth the first draws of its own stream
        streams = np.random.SeedSequence(spec.seed).spawn(spec.frames)
        for k in range(spec.frames):
            got = render_depth(spec, k, np.random.default_rng(streams[k])).values
            want = _cast_every_ray(spec, k, np.random.default_rng(streams[k]))
            assert got.tobytes() == want.tobytes(), f"frame {k}"

    @pytest.mark.parametrize("pitch", [1.0, 1.29], ids=["57deg", "74deg"])
    def test_steep_road_solved_where_iteration_is_not(self, pitch):
        # a 30 degree road seen steeply: the fixed-point iteration does not contract
        spec = SceneSpec(intrinsics=INTR, surface=Surface(kind="tilted", z0=5.0, pitch_deg=30.0),
                         camera_path=(CameraPose(pitch=pitch),))
        with np.errstate(over="ignore"):
            got = render_depth(spec, 0).values
            old = _cast_every_ray(spec, 0)
        res, den = _residual(spec, got)
        forward = den > 0
        eps = np.finfo(np.float32).eps
        assert forward.any() and (res[forward] <= eps * got[forward]).all()
        old_res, _ = _residual(spec, old)
        assert (old_res[forward] > 1e3 * eps * old[forward]).any()

    @pytest.mark.parametrize("surface", [
        Surface(kind="plane", z0=5.0),
        Surface(kind="tilted", z0=5.0, pitch_deg=30.0),
    ], ids=["plane", "tilted30"])
    def test_ray_without_forward_hit_is_infinite(self, surface, monkeypatch):
        spec = SceneSpec(intrinsics=INTR, surface=surface, camera_path=(CameraPose(pitch=1.29),))
        xs_hat, ys_hat = _image_rays(step=1)
        d = np.stack([xs_hat, ys_hat, np.ones_like(xs_hat)], axis=-1) @ spec.pose(0).rotation()
        t = math.tan(math.radians(surface.pitch_deg))
        forward = d[..., 2] - t * d[..., 1] > 0
        monkeypatch.setattr(synth, "_solve_depth", lambda *args: pytest.fail("a ray was cast"))
        got = render_depth(spec, 0).values
        assert forward.any() and (~forward).any()
        assert np.isposinf(got[~forward]).all()
        # the rays that meet the road keep the closed form with its old clamp of d_z to 1e-6
        clamped = (surface.z0 / (np.maximum(d[..., 2], 1e-6) - t * d[..., 1])).astype(np.float32)
        assert got[forward].tobytes() == clamped[forward].tobytes()


class TestRender:
    def test_deterministic(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.03)
        spec = plane_scene(
            potholes=[p], frames=3, seed=5,
            noise=NoiseSpec(box_jitter_px=1.0, depth_rel_std=0.005, conf_noise_std=0.02),
            camera_path=tuple(CameraPose(position=(0.02 * k, 0.0, 0.0)) for k in range(3)),
        )
        f1, g1 = render(spec)
        f2, g2 = render(spec)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.depth.values, b.depth.values)
            assert a.detections == b.detections
        assert g1.planar_areas == g2.planar_areas

    def test_gt_box_brackets_projection(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.03)
        frames, gt = render(plane_scene(potholes=[p], frames=1))
        box = gt.boxes[0][0]
        # rim spans +-0.3 m in x at depth 5 -> +-18 px around the center
        assert box.cx == pytest.approx(160.0, abs=0.5)
        assert box.cy == pytest.approx(120.0, abs=0.5)
        assert box.w == pytest.approx(36.0, abs=0.5)
        assert box.h == pytest.approx(24.0, abs=0.5)

    def test_confidence_range(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2)
        spec = plane_scene(potholes=[p], frames=2, noise=NoiseSpec(conf_noise_std=0.5), seed=3)
        frames, _ = render(spec)
        for f in frames:
            for d in f.detections:
                assert 0.05 <= d.confidence <= 0.99

    def test_invisible_pothole_raises(self):
        p = PotholeSpec(center=(100.0, 0.0), a=0.3, b=0.2)  # far off to the side
        with pytest.raises(PotholeNeverVisible):
            render(plane_scene(potholes=[p], frames=1))

    def test_true_motion_translation(self):
        spec = plane_scene(
            frames=2,
            potholes=[PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2)],
            camera_path=(CameraPose(), CameraPose(position=(0.1, 0.0, 0.0))),
        )
        _, gt = render(spec)
        # camera shifts +0.1 m at depth 5: static pixels shift -f*0.1/5 = -6 px
        x, y = gt.motions[1].apply_point(160.0, 120.0)
        assert x == pytest.approx(154.0, abs=0.05)
        assert y == pytest.approx(120.0, abs=0.05)

    def test_correspondences_consistent_with_motion(self):
        spec = plane_scene(
            frames=2,
            potholes=[PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2)],
            camera_path=(CameraPose(), CameraPose(position=(0.05, 0.02, 0.0))),
            n_correspondences=50,
        )
        frames, gt = render(spec)
        t = gt.motions[1]
        corr = frames[1].correspondences
        assert corr.dtype == np.float64 and corr.shape == (50, 2, 2)
        for (p0, p1) in corr[:20]:
            x, y = t.apply_point(*p0)
            assert x == pytest.approx(p1[0], abs=0.1)
            assert y == pytest.approx(p1[1], abs=0.1)

    def test_next_pose_past_the_surface(self):
        # the second camera sits behind the plane: no surface point projects
        spec = plane_scene(
            frames=2,
            potholes=[PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2)],
            camera_path=(CameraPose(), CameraPose(position=(0.0, 0.0, 6.0))),
        )
        corr = _correspondences(spec, 0, 1, np.random.default_rng(0))
        assert corr.dtype == np.float64 and corr.shape == (0, 2, 2)
        with pytest.raises(SingularTransform):
            render(spec)


class TestAreaOracles:
    def test_ellipse_planar_area(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2)
        assert p.planar_area == pytest.approx(math.pi * 0.06)
        assert p.planar_area == pytest.approx(0.18849555921538758)

    def test_surface_area_limits_to_planar(self):
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=1e-7)
        surf = Surface(kind="plane", z0=5.0, potholes=(p,))
        assert pothole_surface_area(surf, p) == pytest.approx(p.planar_area, rel=1e-6)

    def test_surface_area_grows_with_depth(self):
        prev = 0.0
        for depth in (0.01, 0.05, 0.15):
            p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=depth)
            surf = Surface(kind="plane", z0=5.0, potholes=(p,))
            a = pothole_surface_area(surf, p)
            assert a > prev
            prev = a
        assert prev > p.planar_area

    def test_footprint_fronto_parallel_closed_form(self):
        spec = plane_scene(z0=5.0)
        w, h = 40, 30
        a = analytic_rect_footprint_area(spec, BBox(100, 80, w, h))
        expect = (w - 1) * (h - 1) * 25.0 / (300.0 * 300.0)
        assert a == pytest.approx(expect, rel=1e-9)

    def test_footprint_tilted_closed_form(self):
        pitch = 6.0
        m = math.tan(math.radians(pitch))
        spec = SceneSpec(
            intrinsics=INTR, surface=Surface(kind="tilted", z0=5.0, pitch_deg=pitch), frames=1
        )
        box = BBox(100, 80, 40, 30)
        got = analytic_rect_footprint_area(spec, box)
        # z = z0 / (1 - m*yhat); surface area has a closed form for this plane:
        # sqrt(1+m^2) * (x1-x0) * z0^2 * [1/(2m(1-m*y)^2)] between y0 and y1
        x0 = (100 - INTR.p_u) / INTR.f_u
        x1 = (139 - INTR.p_u) / INTR.f_u
        y0 = (80 - INTR.p_v) / INTR.f_v
        y1 = (109 - INTR.p_v) / INTR.f_v
        expect = (
            math.sqrt(1 + m * m)
            * (x1 - x0)
            * 25.0
            * (1.0 / (1.0 - m * y1) ** 2 - 1.0 / (1.0 - m * y0) ** 2)
            / (2.0 * m)
        )
        assert got == pytest.approx(expect, rel=1e-4)

    def test_mbtp_matches_planar_truth(self):
        # shallow depression on a flat road, imaged large enough that pixel
        # discretization is negligible: the tracked-box estimate should land
        # within 2% of the true elliptical opening
        big = CameraIntrinsics(f_u=1000.0, f_v=1000.0, p_u=960.0, p_v=540.0,
                               width=1920, height=1080)
        p = PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.015)
        spec = SceneSpec(
            intrinsics=big,
            surface=Surface(kind="plane", z0=3.0, potholes=(p,)),
            frames=1,
        )
        frames, gt = render(spec)
        box = gt.boxes[0][0]
        est = estimate_area(box, frames[0].depth, big)
        assert est.area_m2 == pytest.approx(p.planar_area, rel=0.02)


class TestSimulatedSeries:
    def test_shape_and_ranges(self):
        series = simulate_area_series(0.25, 40, seed=1)
        assert len(series) == 40
        for z, c, d in series:
            assert z > 0
            assert 0.05 <= c <= 0.99
            assert 3.0 - 1e-9 <= d <= 14.0 + 1e-9
        assert series[0][2] == pytest.approx(14.0)
        assert series[-1][2] == pytest.approx(3.0)

    def test_deterministic(self):
        assert simulate_area_series(0.2, 30, seed=7) == simulate_area_series(0.2, 30, seed=7)
        assert simulate_area_series(0.2, 30, seed=7) != simulate_area_series(0.2, 30, seed=8)

    def test_measurements_center_on_truth(self):
        series = simulate_area_series(0.3, 4000, seed=2)
        zs = np.array([z for z, _, _ in series])
        assert zs.mean() == pytest.approx(0.3, rel=0.02)


def spec_doc() -> dict:
    return {
        "intrinsics": {"f_u": 300.0, "f_v": 300.0, "p_u": 160.0, "p_v": 120.0,
                       "width": 320, "height": 240},
        "surface": {
            "kind": "tilted", "z0": 5.0, "pitch_deg": 4.0,
            "potholes": [{"center": [0.0, 0.5], "a": 0.3, "b": 0.2, "depth": 0.02}],
        },
        "frames": 3,
        "camera_path": [{"position": [0.0, 0.0, 0.0]}, {"position": [0.0, 0.0, 0.2]}],
        "noise": {"box_jitter_px": 0.5},
        "seed": 9,
    }


def _at(doc: dict, *keys):
    """The mapping inside ``doc`` that the keys and indices lead to."""
    for k in keys:
        doc = doc[k]
    return doc


class TestSpecFromDict:
    def test_roundtrip_fields(self):
        spec = scene_spec_from_dict(spec_doc())
        assert spec.frames == 3
        assert spec.seed == 9
        assert spec.surface.kind == "tilted"
        assert spec.surface.potholes[0].depth == 0.02
        assert spec.noise.box_jitter_px == 0.5
        assert len(spec.camera_path) == 2
        # path shorter than frames: last pose repeats
        assert spec.pose(2) == spec.pose(1)

    def test_unknown_noise_key_rejected(self):
        # a key the renderer does not read is an error, not a silent no-op
        doc = {"intrinsics": {"f_u": 300.0, "f_v": 300.0, "p_u": 160.0, "p_v": 120.0,
                              "width": 320, "height": 240},
               "noise": {"shake_px": 50.0}}
        with pytest.raises(TypeError, match="shake_px"):
            scene_spec_from_dict(doc)

    @pytest.mark.parametrize("keys, key", [
        ((), "frame"),
        (("surface",), "pitch"),
        (("surface", "potholes", 0), "dpeth"),
        (("camera_path", 1), "positon"),
    ], ids=["top-level", "surface", "pothole", "pose"])
    def test_misspelled_key_rejected(self, keys, key):
        # the default would otherwise be rendered in the misspelled value's place
        doc = spec_doc()
        _at(doc, *keys)[key] = 1
        with pytest.raises(TypeError, match=f"'{key}'"):
            scene_spec_from_dict(doc)

    @pytest.mark.parametrize("keys, key, value, message", [
        (("surface",), "kind", "bogus", "unknown surface kind 'bogus'"),
        ((), "frames", -1, "frames must be >= 0"),
        ((), "n_correspondences", -1, "n_correspondences must be >= 0"),
        ((), "seed", -1, "seed must be >= 0"),
        (("surface", "potholes", 0), "center", [0.0], "center needs 2 coordinates"),
        (("camera_path", 0), "position", [0.0, 0.0], "position needs 3 coordinates"),
        (("surface",), "z0", "deep", "z0 must be a finite number, got 'deep'"),
        (("intrinsics",), "f_u", "300", "f_u must be a finite number, got '300'"),
        (("intrinsics",), "width", 320.5, "width must be a finite whole number, got 320.5"),
        ((), "frames", 2.5, "frames must be a finite whole number, got 2.5"),
        (("noise",), "conf_c0", math.nan, "conf_c0 must be a finite number, got nan"),
        (("noise",), "box_jitter_px", math.inf, "box_jitter_px must be a finite number, got inf"),
        (("noise",), "depth_rel_std", -0.1, "noise depth_rel_std must be >= 0"),
        (("noise",), "conf_noise_std", -0.1, "noise conf_noise_std must be >= 0"),
        (("surface", "potholes", 0), "center", [0.0, "x"], "center must be a finite number"),
    ], ids=["kind", "frames", "n-correspondences", "seed", "center", "position", "z0",
            "string-f-u", "fractional-width", "fractional-frames", "nan-conf-c0",
            "inf-box-jitter", "negative-depth-std", "negative-conf-std", "string-center"])
    def test_bad_value_rejected_when_built(self, keys, key, value, message):
        doc = spec_doc()
        _at(doc, *keys)[key] = value
        with pytest.raises(ValueError, match=message):
            scene_spec_from_dict(doc)

    def test_load_replaces_the_seed_before_building(self, tmp_path):
        # a seed the caller replaces is not checked
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump({**spec_doc(), "seed": -1}))
        assert load_scene_spec(path, seed=4) == scene_spec_from_dict({**spec_doc(), "seed": 4})
        with pytest.raises(FormatError, match="seed must be >= 0"):
            load_scene_spec(path)

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("intrinsics: [\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            load_scene_spec(path)
        path.write_text("- 1\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: SceneSpec must be a mapping"):
            load_scene_spec(path)

    def test_syntax_error_names_the_file(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("intrinsics: [\n")
        with pytest.raises(FormatError) as e:
            load_scene_spec(path)
        assert f'in "{path}", line 2' in str(e.value)
        assert "<unicode string>" not in str(e.value)
