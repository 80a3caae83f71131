"""Seeded inputs for the sequence workloads.

A tilted road plane ``z = z0 + tan(pitch) * y`` is seen by a pinhole camera
that translates parallel to its image plane, so the depth of the bare road
has a closed form and the pixel motion between frames is an exact affine
map. Each depression is ray-cast by fixed-point iteration only inside its
own window, which keeps a 1080p frame at tens of milliseconds where the
general renderer in ``areatrack.synth`` takes seconds.

The files are written in the documented on-disk formats by this module
itself, not by the package's writers, so the inputs of a workload do not
change when the program under test changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from areatrack.geometry import BBox, CameraIntrinsics
from areatrack.synth import CameraPose, PotholeSpec, SceneSpec, Surface, analytic_rect_footprint_area

ELLIPSE_FACTOR = math.pi / 4.0
WINDOW_PAD_PX = 8  # a depression recedes the surface, so hits stray past the rim box


@dataclass(frozen=True)
class Layout:
    """Everything that defines one generated sequence."""

    intr: CameraIntrinsics
    z0: float
    pitch_deg: float
    potholes: tuple[PotholeSpec, ...]
    frames: int
    step: tuple[float, float]  # camera translation per frame, meters
    depth_rel_std: float
    box_jitter_px: float
    low_conf_frac: float
    n_corr: int  # raw correspondences per frame; 0 writes fitted transforms
    outlier_frac: float
    seed: int

    @property
    def slope(self) -> float:
        return math.tan(math.radians(self.pitch_deg))

    def camera(self, k: int) -> tuple[float, float]:
        return (k * self.step[0], k * self.step[1])

    def surface(self, p: PotholeSpec) -> Surface:
        """The road with depression p alone: windows never overlap, so p shapes its own."""
        return Surface(kind="tilted", z0=self.z0, pitch_deg=self.pitch_deg, potholes=(p,))


def _grid_potholes(nx, ny, x_span, y_span, a, b, depth):
    # A fixed layout: the MBTP bias depends on where a box sits in the image,
    # so moving the objects with the seed would make area_rel_err wander.
    return tuple(
        PotholeSpec(center=(float(x), float(y)), a=a, b=b, depth=depth)
        for y in np.linspace(-y_span, y_span, ny)
        for x in np.linspace(-x_span, x_span, nx)
    )


def layout_1080p(seed: int) -> Layout:
    """Four ~200 px depressions on a 1920x1080 tilted road, raw motion."""
    intr = CameraIntrinsics(f_u=1400.0, f_v=1400.0, p_u=960.0, p_v=540.0,
                            width=1920, height=1080)
    return Layout(intr=intr, z0=6.0, pitch_deg=8.0,
                  potholes=_grid_potholes(2, 2, 1.0, 0.5, 0.42, 0.38, 0.03),
                  frames=12, step=(0.02, 0.006), depth_rel_std=0.004, box_jitter_px=0.3,
                  low_conf_frac=0.0, n_corr=200, outlier_frac=0.2, seed=seed)


def layout_crowded(seed: int, frames: int = 30) -> Layout:
    """Forty ~24 px depressions on a 640x360 road, fitted transforms."""
    intr = CameraIntrinsics(f_u=500.0, f_v=500.0, p_u=320.0, p_v=180.0,
                            width=640, height=360)
    return Layout(intr=intr, z0=6.0, pitch_deg=8.0,
                  potholes=_grid_potholes(8, 5, 3.1, 1.6, 0.15, 0.14, 0.01),
                  frames=frames, step=(0.01, 0.003), depth_rel_std=0.004, box_jitter_px=0.1,
                  low_conf_frac=0.3, n_corr=0, outlier_frac=0.0, seed=seed)


def plane_depth(lay: Layout, k: int) -> np.ndarray:
    """Closed-form camera depth of the bare road: Z (1 - t*yhat) = z0 + t*cy."""
    intr = lay.intr
    _, cy = lay.camera(k)
    yhat = (np.arange(intr.height, dtype=np.float64) - intr.p_v) / intr.f_v
    col = (lay.z0 + lay.slope * cy) / (1.0 - lay.slope * yhat)
    return np.repeat(col[:, None], intr.width, axis=1)


def true_box(lay: Layout, p: PotholeSpec, k: int) -> BBox:
    """Pixel hull of the depression rim projected from the base plane."""
    intr = lay.intr
    cx, cy = lay.camera(k)
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    x = p.center[0] + p.a * np.cos(phi)
    y = p.center[1] + p.b * np.sin(phi)
    z = lay.z0 + lay.slope * y
    u = intr.f_u * (x - cx) / z + intr.p_u
    v = intr.f_v * (y - cy) / z + intr.p_v
    return BBox(float(u.min()), float(v.min()), float(u.max() - u.min()), float(v.max() - v.min()))


def in_view(lay: Layout, b: BBox, margin: float = 2.0) -> bool:
    return (b.x >= margin and b.y >= margin and b.right <= lay.intr.width - 1 - margin
            and b.bottom <= lay.intr.height - 1 - margin)


def depression_window(lay: Layout, box: BBox) -> tuple[slice, slice]:
    intr = lay.intr
    u0 = max(0, int(math.floor(box.x)) - WINDOW_PAD_PX)
    v0 = max(0, int(math.floor(box.y)) - WINDOW_PAD_PX)
    u1 = min(intr.width, int(math.ceil(box.right)) + WINDOW_PAD_PX + 1)
    v1 = min(intr.height, int(math.ceil(box.bottom)) + WINDOW_PAD_PX + 1)
    return slice(v0, v1), slice(u0, u1)


def exact_depth(lay: Layout, k: int) -> np.ndarray:
    """Noise-free depth: closed-form plane plus ray-cast depressions."""
    intr = lay.intr
    cx, cy = lay.camera(k)
    z = plane_depth(lay, k)
    for p in lay.potholes:
        rows, cols = depression_window(lay, true_box(lay, p, k))
        if rows.start >= rows.stop or cols.start >= cols.stop:
            continue
        surf = lay.surface(p)
        xh = (np.arange(cols.start, cols.stop, dtype=np.float64) - intr.p_u) / intr.f_u
        yh = (np.arange(rows.start, rows.stop, dtype=np.float64) - intr.p_v) / intr.f_v
        xh, yh = np.meshgrid(xh, yh)
        w = z[rows, cols]
        for _ in range(60):
            nxt = surf.height(cx + w * xh, cy + w * yh)
            done = np.max(np.abs(nxt - w)) < 1e-12
            w = nxt
            if done:
                break
        z[rows, cols] = w
    return z


def motion_matrix(lay: Layout, k: int) -> np.ndarray:
    """Exact affine map from frame k-1 pixels to frame k pixels."""
    intr = lay.intr
    dx, dy = lay.step
    c = lay.z0 + lay.slope * lay.camera(k - 1)[1]
    t = lay.slope
    return np.array([
        [1.0, t * dx / c, -intr.f_u * dx / c - t * dx * intr.p_v / c],
        [0.0, 1.0 + t * dy / c, -intr.f_v * dy / c - t * dy * intr.p_v / c],
        [0.0, 0.0, 1.0],
    ])


def pfm_bytes(z: np.ndarray) -> bytes:
    h, w = z.shape
    return f"Pf\n{w} {h}\n-1.0\n".encode("ascii") + np.ascontiguousarray(z[::-1], dtype="<f4").tobytes()


def _confidence(rng, low: bool) -> float:
    return float(rng.uniform(0.15, 0.45) if low else rng.uniform(0.6, 0.95))


def write_sequence(lay: Layout, out_dir: Path) -> Path:
    """Write depth, detections, motion and manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    intr = lay.intr
    streams = np.random.SeedSequence([lay.seed, lay.frames, len(lay.potholes)]).spawn(lay.frames)
    frames = []
    for k in range(lay.frames):
        rng = np.random.default_rng(streams[k])
        z = exact_depth(lay, k)
        if lay.depth_rel_std > 0:
            z *= 1.0 + lay.depth_rel_std * rng.standard_normal(z.shape)
        (out / f"depth_{k:04d}.pfm").write_bytes(pfm_bytes(z))

        lines = ["format_version=1"]
        for i, p in enumerate(lay.potholes):
            b = true_box(lay, p, k)
            if not in_view(lay, b):
                continue
            jx, jy, jw, jh = lay.box_jitter_px * rng.standard_normal(4)
            # object 0 starts confident so every sequence spawns at least one track
            low = i > 0 and rng.uniform() < lay.low_conf_frac
            lines.append(
                f"frame={k} class_id=0 x={b.x + jx:.6f} y={b.y + jy:.6f} "
                f"w={max(2.0, b.w + jw):.6f} h={max(2.0, b.h + jh):.6f} "
                f"confidence={_confidence(rng, low):.6f}"
            )
        (out / f"dets_{k:04d}.txt").write_text("\n".join(lines) + "\n")

        entry = {"frame": k, "depth": f"depth_{k:04d}.pfm", "detections": f"dets_{k:04d}.txt"}
        if k > 0:
            m = motion_matrix(lay, k)
            lines = ["format_version=1"]
            if lay.n_corr:
                src = rng.uniform([0.0, 0.0], [intr.width - 1.0, intr.height - 1.0], (lay.n_corr, 2))
                dst = src @ m[:2, :2].T + m[:2, 2] + 0.3 * rng.standard_normal(src.shape)
                bad = rng.uniform(size=lay.n_corr) < lay.outlier_frac
                dst[bad] = rng.uniform([0.0, 0.0], [intr.width - 1.0, intr.height - 1.0],
                                       (int(bad.sum()), 2))
                lines += [f"{a:.6f} {b:.6f} {c:.6f} {d:.6f}" for (a, b), (c, d) in zip(src, dst)]
            else:
                lines.append("transform")
                lines += [" ".join(f"{v:.10g}" for v in row) for row in m]
            (out / f"motion_{k:04d}.txt").write_text("\n".join(lines) + "\n")
            entry["motion"] = f"motion_{k:04d}.txt"
        frames.append(entry)

    doc = {
        "format_version": 1,
        "dataset": "perfbench",
        "fps": 30.0,
        "intrinsics": {"f_u": intr.f_u, "f_v": intr.f_v, "p_u": intr.p_u, "p_v": intr.p_v,
                       "width": intr.width, "height": intr.height},
        "frames": frames,
    }
    manifest = out / "manifest.yaml"
    manifest.write_text(yaml.safe_dump(doc, sort_keys=False))
    return manifest


def true_area(lay: Layout, i: int, k: int) -> float:
    """pi/4 times the exact surface area seen through object i's true box in frame k."""
    cx, cy = lay.camera(k)
    spec = SceneSpec(intrinsics=lay.intr, surface=lay.surface(lay.potholes[i]),
                     camera_path=(CameraPose(position=(cx, cy, 0.0)),))
    return ELLIPSE_FACTOR * analytic_rect_footprint_area(spec, true_box(lay, lay.potholes[i], k))
