"""Synthetic scene oracle.

Analytic road surfaces with smooth elliptical depressions are rendered
into exact depth maps, together with ground-truth boxes, per-depression
true areas, noisy detections, and camera-motion correspondences. A plane
or tilted road's depth is its closed-form ray hit, or +inf for a ray that
never meets it; only the rays that land in a depression or meet an
undulating road are ray-cast. The rendered files use the same formats the
pipeline consumes, so synthetic and real sequences are interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.spatial.transform import Rotation

from . import formats
from .errors import FormatError, PotholeNeverVisible
from .geometry import BBox, CameraIntrinsics, DepthMap, Detection, pixel_grid

# ---------------------------------------------------------------------------
# surface models (world frame: x right, y down, z forward)


@dataclass(frozen=True)
class PotholeSpec:
    """Smooth elliptical depression in the surface.

    center is (x, y) in world meters on the base surface; depth is the
    extra distance (meters) the surface recedes at the depression center.
    """

    center: tuple[float, float]
    a: float
    b: float
    depth: float = 0.05

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("semi-axes must be positive")
        if len(self.center) != 2:
            raise ValueError(f"center needs 2 coordinates, got {self.center!r}")

    @property
    def planar_area(self) -> float:
        return math.pi * self.a * self.b


@dataclass(frozen=True)
class Surface:
    """Base surface z = f(x, y) plus cosine-bump depressions.

    kind: "plane" (z = z0), "tilted" (z = z0 + tan(pitch) * y) or
    "undulating" (z = z0 + amplitude * sin(2*pi*y / wavelength)).
    """

    kind: str = "plane"
    z0: float = 5.0
    pitch_deg: float = 0.0
    amplitude: float = 0.0
    wavelength: float = 2.0
    potholes: tuple[PotholeSpec, ...] = ()

    def __post_init__(self):
        if self.kind not in ("plane", "tilted", "undulating"):
            raise ValueError(f"unknown surface kind {self.kind!r}")

    @property
    def slope(self) -> float:
        """dz/dy of a tilted road; 0.0 for the other kinds."""
        return math.tan(math.radians(self.pitch_deg)) if self.kind == "tilted" else 0.0

    def base_height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "undulating":
            return self.z0 + self.amplitude * np.sin(2.0 * math.pi * y / self.wavelength)
        return self.z0 + self.slope * y

    def height(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Surface depth-coordinate z at world (x, y), depressions included."""
        z = np.array(self.base_height(x, y), dtype=np.float64)
        for p in self.potholes:
            r2 = np.asarray(((x - p.center[0]) / p.a) ** 2 + ((y - p.center[1]) / p.b) ** 2)
            inside = r2 < 1.0
            z[inside] += p.depth * np.cos(0.5 * math.pi * np.sqrt(r2[inside])) ** 2
        return z

    def grad(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Surface gradient (dz/dx, dz/dy) at world (x, y), depressions included."""
        gx = np.zeros(np.shape(x))
        if self.kind == "undulating":
            gy = np.array(self.amplitude * (2.0 * math.pi / self.wavelength)
                          * np.cos(2.0 * math.pi * y / self.wavelength), dtype=np.float64)
        else:
            gy = gx + self.slope
        for p in self.potholes:
            xs = (x - p.center[0]) / p.a
            ys = (y - p.center[1]) / p.b
            r2 = xs ** 2 + ys ** 2
            inside = (r2 < 1.0) & (r2 > 1e-16)
            if np.any(inside):
                r = np.sqrt(r2[inside])
                # d/dr cos^2(pi r / 2) = -(pi/2) sin(pi r)
                dr = -0.5 * math.pi * np.sin(math.pi * r) * p.depth
                gx[inside] += dr * xs[inside] / (p.a * r)
                gy[inside] += dr * ys[inside] / (p.b * r)
        return gx, gy


@dataclass(frozen=True)
class CameraPose:
    """Camera position in world meters and small-angle attitude in radians."""

    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pitch: float = 0.0
    yaw: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        if len(self.position) != 3:
            raise ValueError(f"position needs 3 coordinates, got {self.position!r}")

    def rotation(self) -> np.ndarray:
        """World-to-camera rotation matrix."""
        return Rotation.from_euler("xyz", [self.pitch, self.yaw, self.roll]).as_matrix()


@dataclass(frozen=True)
class NoiseSpec:
    box_jitter_px: float = 0.0
    depth_rel_std: float = 0.0
    conf_c0: float = 0.95
    conf_slope: float = 0.02  # per meter of distance
    conf_noise_std: float = 0.0

    def __post_init__(self):
        for name in ("box_jitter_px", "depth_rel_std", "conf_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"noise {name} must be >= 0, got {getattr(self, name)}")


# Largest scene that render accepts: rendering one 3840x2160 frame's depth peaks
# near 0.9 GB, and the other two bound its per-frame loop and draws.
MAX_FRAME_PX = 3840 * 2160
MAX_FRAMES = 100_000
MAX_CORRESPONDENCES = 1_000_000


@dataclass(frozen=True)
class SceneSpec:
    intrinsics: CameraIntrinsics
    surface: Surface = Surface()
    frames: int = 1
    camera_path: tuple[CameraPose, ...] = ()
    noise: NoiseSpec = NoiseSpec()
    n_correspondences: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("frames", "n_correspondences", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        intr = self.intrinsics
        if intr.width * intr.height > MAX_FRAME_PX:
            raise ValueError(f"intrinsics width*height must be at most {MAX_FRAME_PX} pixels, "
                             f"got {intr.width:.6g}x{intr.height:.6g}")
        for name, limit in (("frames", MAX_FRAMES), ("n_correspondences", MAX_CORRESPONDENCES)):
            if getattr(self, name) > limit:
                raise ValueError(f"{name} must be at most {limit}, got {getattr(self, name):.6g}")

    def pose(self, k: int) -> CameraPose:
        if not self.camera_path:
            return CameraPose()
        return self.camera_path[min(k, len(self.camera_path) - 1)]


@dataclass
class FrameData:
    frame: int
    depth: DepthMap
    detections: list[Detection]
    correspondences: Optional[np.ndarray]  # (n, 2, 2); None in the first frame


@dataclass
class GroundTruth:
    boxes: dict[int, dict[int, BBox]]  # frame -> pothole id -> box
    planar_areas: dict[int, float]  # pothole id -> pi*a*b
    surface_areas: dict[int, float]  # pothole id -> integrated opening area


# ---------------------------------------------------------------------------
# ray casting


def _ray_dirs(R: np.ndarray, xs_hat: np.ndarray, ys_hat: np.ndarray) -> np.ndarray:
    """World-frame ray directions for camera rays (xhat, yhat, 1).

    Parametrized by camera-frame depth: world point = c + Z * dir.
    """
    d_cam = np.stack([xs_hat, ys_hat, np.ones_like(xs_hat)], axis=-1)
    return d_cam @ R  # row-wise R^T * d_cam


# far below the ~6e-8 resolution of the float32 depth maps _solve_depth feeds
SOLVE_RTOL = 1e-12
SOLVE_MAX_ITERS = 80


def _solve_depth(
    surface: Surface, pose: CameraPose, xs_hat: np.ndarray, ys_hat: np.ndarray
) -> np.ndarray:
    """Camera-frame depth Z solving c + Z * d = surface along each ray.

    Fixed-point iteration; gentle slopes converge geometrically. It stops
    after the first step that moves no depth by more than SOLVE_RTOL times
    the largest depth, and after ``SOLVE_MAX_ITERS`` steps at most. A NaN
    depth anywhere never passes that test, so such inputs, like ones that do
    not contract, run all ``SOLVE_MAX_ITERS`` steps.
    """
    R = pose.rotation()
    d = _ray_dirs(R, xs_hat, ys_hat)
    cx, cy, cz = pose.position
    dx, dy = d[..., 0], d[..., 1]
    dz = np.maximum(d[..., 2], 1e-6)
    z = np.maximum((surface.z0 - cz) / dz, 0.1)
    for _ in range(SOLVE_MAX_ITERS):
        zs = surface.height(cx + z * dx, cy + z * dy)
        z_next = (zs - cz) / dz
        step = np.max(np.abs(z_next - z), initial=0.0)
        z = z_next
        if step <= SOLVE_RTOL * np.max(np.abs(z), initial=0.0):
            break
    return z


def _surface_depth(
    surface: Surface, pose: CameraPose, xs_hat: np.ndarray, ys_hat: np.ndarray
) -> np.ndarray:
    """Camera-frame depth Z at which each ray (xhat, yhat, 1) meets the surface.

    A ray meets a plane or tilted road z = z0 + t*y at Z = (z0 + t*cy - cz) / (dz - t*dy),
    t = 0 for a plane, wherever that denominator is positive. Depressions only
    recede the road, so a ray whose base hit lies outside every depression is in
    front of the surface all the way to it: the hit is the ray's first root, and
    exact. Where ``_solve_depth`` converges it settles on the same root, so such
    a ray is not iterated. For a camera on the near side of the road, a ray whose
    denominator is not positive never meets it, and its depth is +inf. Only the
    rays of an undulating road and the rays whose base hit is inside a
    depression are ray-cast by ``_solve_depth``.
    """
    if surface.kind == "undulating":  # no closed form: every ray is cast
        return _solve_depth(surface, pose, xs_hat, ys_hat)
    d = _ray_dirs(pose.rotation(), xs_hat, ys_hat)
    cx, cy, cz = pose.position
    t = surface.slope
    den = d[..., 2] - t * d[..., 1]
    hit = den > 0
    z = np.divide(surface.z0 + t * cy - cz, den, out=np.full(den.shape, np.inf), where=hit)
    with np.errstate(invalid="ignore"):  # inf * 0 on the rays with no hit
        hx, hy = cx + z * d[..., 0], cy + z * d[..., 1]
        cast = hit & (surface.height(hx, hy) != surface.base_height(hx, hy))
    if cast.any():
        z[cast] = _solve_depth(surface, pose, xs_hat[cast], ys_hat[cast])
    return z


def render_depth(spec: SceneSpec, frame: int, rng: Optional[np.random.Generator] = None) -> DepthMap:
    """The frame's exact depth (``_surface_depth`` of every pixel's ray); ``rng``,
    if given, draws its relative depth noise. A pixel whose ray never meets the
    road has depth +inf, which ``DepthMap`` treats as invalid."""
    intr = spec.intrinsics
    xs_hat, ys_hat = np.meshgrid(*intr.ray(np.arange(intr.width), np.arange(intr.height)))
    z = _surface_depth(spec.surface, spec.pose(frame), xs_hat, ys_hat)
    if rng is not None:
        z = z * (1.0 + spec.noise.depth_rel_std * rng.standard_normal(z.shape))
    return DepthMap(intr.width, intr.height, z.astype(np.float32))


def _project_world(points: np.ndarray, pose: CameraPose, intr: CameraIntrinsics) -> np.ndarray:
    """World (N, 3) points to pixel (N, 2); points behind the camera get NaN."""
    R = pose.rotation()
    cam = (points - np.asarray(pose.position)) @ R.T
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.stack(intr.pixel(cam[:, 0], cam[:, 1], z), axis=1)
    out[z <= 0.05] = np.nan
    return out


def _gt_box(p: PotholeSpec, surface: Surface, pose: CameraPose, intr: CameraIntrinsics) -> Optional[BBox]:
    """Project the depression rim and take the pixel-aligned hull."""
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    x = p.center[0] + p.a * np.cos(phi)
    y = p.center[1] + p.b * np.sin(phi)
    z = surface.base_height(x, y)
    pix = _project_world(np.stack([x, y, z], axis=1), pose, intr)
    if np.isnan(pix).any():
        return None
    u0, v0 = pix[:, 0].min(), pix[:, 1].min()
    u1, v1 = pix[:, 0].max(), pix[:, 1].max()
    if u1 < 0 or v1 < 0 or u0 > intr.width - 1 or v0 > intr.height - 1:
        return None
    return BBox(float(u0), float(v0), float(u1 - u0), float(v1 - v0))


def _confidence(dist: float, noise: NoiseSpec, rng: np.random.Generator) -> float:
    c = noise.conf_c0 - noise.conf_slope * dist
    if noise.conf_noise_std > 0:
        c += noise.conf_noise_std * rng.standard_normal()
    return float(np.clip(c, 0.05, 0.99))


def _correspondences(
    spec: SceneSpec, prev_frame: int, frame: int, rng: np.random.Generator
) -> np.ndarray:
    """``spec.n_correspondences`` random pixels of ``prev_frame`` cast onto
    the surface and projected into ``frame``, as (k, 2, 2) ``[[x0, y0],
    [x1, y1]]`` rows in draw order; pixels whose ray never meets the road,
    or whose surface point is behind the camera, are left out."""
    intr = spec.intrinsics
    n = spec.n_correspondences
    uu = rng.uniform(0, intr.width - 1, size=n)
    vv = rng.uniform(0, intr.height - 1, size=n)
    prev_pose = spec.pose(prev_frame)
    xs_hat, ys_hat = intr.ray(uu, vv)
    z = _surface_depth(spec.surface, prev_pose, xs_hat, ys_hat)
    hit = np.isfinite(z)
    d = _ray_dirs(prev_pose.rotation(), xs_hat, ys_hat)[hit]
    world = np.asarray(prev_pose.position) + z[hit, None] * d
    curr = _project_world(world, spec.pose(frame), intr)
    ok = ~np.isnan(curr).any(axis=1)
    return np.stack([np.column_stack([uu, vv])[hit][ok], curr[ok]], axis=1)


def render(spec: SceneSpec) -> tuple[list[FrameData], GroundTruth]:
    """Render all frames deterministically (RNG streams split per frame)."""
    intr = spec.intrinsics
    streams = np.random.SeedSequence(spec.seed).spawn(spec.frames)
    frames: list[FrameData] = []
    gt_boxes: dict[int, dict[int, BBox]] = {}
    seen = {i: False for i in range(len(spec.surface.potholes))}

    for k in range(spec.frames):
        rng = np.random.default_rng(streams[k])
        pose = spec.pose(k)
        depth = render_depth(spec, k, rng if spec.noise.depth_rel_std > 0 else None)
        boxes: dict[int, BBox] = {}
        dets: list[Detection] = []
        for i, p in enumerate(spec.surface.potholes):
            box = _gt_box(p, spec.surface, pose, intr)
            if box is None:
                continue
            seen[i] = True
            boxes[i] = box
            jit = spec.noise.box_jitter_px
            if jit > 0:
                dx, dy, dw, dh = jit * rng.standard_normal(4)
            else:
                dx = dy = dw = dh = 0.0
            det_box = BBox(
                box.x + dx, box.y + dy, max(2.0, box.w + dw), max(2.0, box.h + dh)
            )
            center_world = np.array(
                [p.center[0], p.center[1], float(spec.surface.base_height(
                    np.array(p.center[0]), np.array(p.center[1])))]
            )
            dist = float(np.linalg.norm(center_world - np.asarray(pose.position)))
            dets.append(
                Detection(det_box, _confidence(dist, spec.noise, rng), class_id=0, frame=k)
            )
        gt_boxes[k] = boxes
        corr = _correspondences(spec, k - 1, k, rng) if k > 0 else None
        frames.append(FrameData(frame=k, depth=depth, detections=dets, correspondences=corr))

    for i, was_seen in seen.items():
        if not was_seen:
            raise PotholeNeverVisible(f"pothole {i} never enters the camera view")

    planar = {i: p.planar_area for i, p in enumerate(spec.surface.potholes)}
    surf = {i: pothole_surface_area(spec.surface, p) for i, p in enumerate(spec.surface.potholes)}
    return frames, GroundTruth(boxes=gt_boxes, planar_areas=planar, surface_areas=surf)


def scene_spec_from_dict(doc: dict) -> SceneSpec:
    """Build a SceneSpec from a parsed YAML/JSON mapping of field names, at every level."""
    def floats(name: str):
        return lambda values: tuple(formats.number(name, float, v) for v in values)

    return formats.build(SceneSpec, doc,
                         intrinsics=lambda d: formats.build(CameraIntrinsics, d),
                         surface=lambda d: formats.build(Surface, d, potholes=lambda ps: tuple(
                             formats.build(PotholeSpec, p, center=floats("center")) for p in ps)),
                         camera_path=lambda ps: tuple(
                             formats.build(CameraPose, p, position=floats("position")) for p in ps),
                         noise=lambda d: formats.build(NoiseSpec, d))


def load_scene_spec(path, seed: Optional[int] = None) -> SceneSpec:
    """The scene spec in a YAML file, its seed replaced by ``seed`` if one is given.
    An invalid spec is a ``FormatError`` naming the file."""
    doc = formats.read_yaml(path, FormatError)
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    try:
        return scene_spec_from_dict(doc)
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: {e}") from None


def write_scene(spec: SceneSpec, out_dir) -> Path:
    """Render a scene and write it in the pipeline's own file formats.

    Produces manifest.yaml, per-frame depth (PFM), detections, motion
    correspondences, plus ground-truth boxes and areas.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames, gt = render(spec)
    entries = []
    gt_dets: dict[int, list[Detection]] = {}
    for f in frames:
        entry = formats.FrameEntry(
            frame=f.frame,
            depth_path=out / f"depth_{f.frame:04d}.pfm",
            detections_path=out / f"dets_{f.frame:04d}.txt",
            motion_path=None if f.correspondences is None else out / f"motion_{f.frame:04d}.txt",
        )
        entry.depth_path.write_bytes(formats.write_pfm(f.depth))
        entry.detections_path.write_text(formats.write_detections({f.frame: f.detections}))
        if entry.motion_path is not None:
            entry.motion_path.write_text(formats.write_correspondences(f.correspondences))
        entries.append(entry)
        gt_dets[f.frame] = [Detection(box, 1.0, 0, f.frame) for box in gt.boxes[f.frame].values()]
    formats.SequenceManifest(intrinsics=spec.intrinsics, frames=entries,
                             dataset="synthetic").dump(out / "manifest.yaml")
    (out / "gt_boxes.txt").write_text(formats.write_detections(gt_dets))
    (out / "gt_areas.txt").write_text(formats.write_records(
        f"pothole={i} planar_area_m2={gt.planar_areas[i]:.8f} "
        f"surface_area_m2={gt.surface_areas[i]:.8f}"
        for i in sorted(gt.planar_areas)
    ))
    return out / "manifest.yaml"


def simulate_area_series(true_area: float, n: int, seed: int) -> list[tuple[float, float, float]]:
    """Noisy (measurement, confidence, distance) triples for one approach
    pass from 14 m to 3 m: the camera closes in, confidence rises,
    measurement noise decays with proximity and confidence. Drives the
    smoother ablations without a full depth render."""
    rng = np.random.default_rng(seed)
    noise = NoiseSpec(conf_noise_std=0.03)
    out = []
    for k in range(n):
        d = 14.0 - 11.0 * k / max(1, n - 1)
        c = _confidence(d, noise, rng)
        rel_std = 0.05 + 0.015 * d + 0.05 * (1.0 - c)
        z = true_area * (1.0 + rel_std * rng.standard_normal())
        out.append((max(1e-4, z), c, d))
    return out


# ---------------------------------------------------------------------------
# analytic area oracles

# relative change between successive quadrature orders at which both stop
QUAD_RTOL = 1e-6


def _gauss_legendre_2d(f, x0, x1, y0, y1, orders):
    """Tensor Gauss-Legendre integral of f over [x0, x1] x [y0, y1] at each
    order in turn; the first value within QUAD_RTOL of the one before it,
    else the value at the last order."""
    prev = None
    for n in orders:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        xs = 0.5 * (x1 - x0) * nodes + 0.5 * (x1 + x0)
        ys = 0.5 * (y1 - y0) * nodes + 0.5 * (y1 + y0)
        X, Y = np.meshgrid(xs, ys)
        W = np.outer(weights, weights)
        val = 0.25 * (x1 - x0) * (y1 - y0) * float(np.sum(W * f(X, Y)))
        if prev is not None and abs(val - prev) <= QUAD_RTOL * abs(val):
            return val
        prev = val
    return val


def pothole_surface_area(surface: Surface, p: PotholeSpec) -> float:
    """Surface area of the depression opening (its elliptical footprint),
    integrated over the full surface including the bump.

    Uses elliptical polar coordinates so the integrand stays smooth on the
    whole [0, 1] x [0, 2*pi] domain.
    """

    def integrand(r, phi):
        X = p.center[0] + p.a * r * np.cos(phi)
        Y = p.center[1] + p.b * r * np.sin(phi)
        gx, gy = surface.grad(X, Y)
        return np.sqrt(1.0 + gx ** 2 + gy ** 2) * p.a * p.b * r

    return _gauss_legendre_2d(integrand, 0.0, 1.0, 0.0, 2.0 * math.pi, (16, 32, 64, 128))


def analytic_rect_footprint_area(spec: SceneSpec, box: BBox, frame: int = 0) -> float:
    """Exact surface area seen through the box's pixel grid.

    Integrates |dS/du x dS/dv| over the normalized-ray rectangle spanned by
    the box's first and last integer pixel, i.e. the quantity the pre-pi/4
    patch sum discretizes (up to local surface tilt, which projects the
    area onto the camera XY plane).
    """
    intr = spec.intrinsics
    pose = spec.pose(frame)
    u0, u1, v0, v1 = pixel_grid(box, intr)  # half-open: the last pixel is u1 - 1
    x0, y0 = intr.ray(u0, v0)
    x1, y1 = intr.ray(u1 - 1, v1 - 1)
    R = pose.rotation()
    r1 = R.T[:, 0]
    r2 = R.T[:, 1]
    r3 = R.T[:, 2]
    cx, cy, cz = pose.position

    def integrand(XH, YH):
        d = XH[..., None] * r1 + YH[..., None] * r2 + r3
        z = _solve_depth(spec.surface, pose, XH, YH)
        px = cx + z * d[..., 0]
        py = cy + z * d[..., 1]
        gx, gy = spec.surface.grad(px, py)
        # implicit derivative of F = cz + z*dz - f(cx + z*dx, cy + z*dy)
        Fz = d[..., 2] - gx * d[..., 0] - gy * d[..., 1]
        Fu = z * (r1[2] - gx * r1[0] - gy * r1[1])
        Fv = z * (r2[2] - gx * r2[0] - gy * r2[1])
        zu = -Fu / Fz
        zv = -Fv / Fz
        # dS/du = zu * d + z * r1 ; dS/dv = zv * d + z * r2
        Su = zu[..., None] * d + z[..., None] * r1
        Sv = zv[..., None] * d + z[..., None] * r2
        cross = np.cross(Su, Sv)
        return np.linalg.norm(cross, axis=-1)

    return _gauss_legendre_2d(integrand, x0, x1, y0, y1, (16, 32, 64, 128, 256))
