"""The four workloads: inputs made in set-up, one timed operation, checks.

A workload is driven as: ``prepare(dir)`` (input generation) and
``warm_up()`` make up set-up; ``run_pass(i)`` is the timed operation;
``check_pass(i, out)`` runs outside the timed region after every pass;
``finish()`` runs the end-of-run checks and returns the quality metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from areatrack import bayesopt, formats, pipeline, synth
from areatrack.cdkf import CdkfConfig, NoiseMode
from areatrack.geometry import BBox, CameraIntrinsics

import checks
import gen

# Sanity limits on area_rel_err. The baseline carries the known MBTP biases
# (triangle split, noise folds), so these catch a broken estimator, not bias.
AREA_LIMIT = {"seq-1080p": 0.8, "seq-crowded": 0.5, "tune": 0.5, "render": 0.5}


def _sequence_quality(records, lay: gen.Layout) -> tuple[float, float]:
    def true_boxes(k):
        boxes = {i: gen.true_box(lay, p, k) for i, p in enumerate(lay.potholes)}
        return {i: b for i, b in boxes.items() if gen.in_view(lay, b)}

    return checks.area_quality(records, true_boxes, lambda i, k: gen.true_area(lay, i, k))


class Sequence:
    """The ``areatrack estimate`` path: manifest load, run_pipeline, write_results."""

    def __init__(self, name: str, layout, seed: int):
        self.name = name
        self.lay = layout(seed)
        self.frames = self.lay.frames
        self.config = pipeline.PipelineConfig()  # the CLI defaults
        self.first: bytes | None = None
        self.records = None

    def prepare(self, work: Path) -> None:
        self.manifest = gen.write_sequence(self.lay, work)
        self.out_path = work / "results.txt"

    def warm_up(self) -> None:
        self.run_pass(-1)

    def run_pass(self, i: int):
        manifest = formats.SequenceManifest.load(self.manifest)
        records, _ = pipeline.run_pipeline(manifest, self.config)
        text = formats.write_results(records)
        self.out_path.write_text(text)
        self.records = records
        return text

    def check_pass(self, i: int, text: str) -> None:
        data = text.encode()
        if self.first is None:
            self.first = data
        checks.same_bytes(self.first, data, "write_results")

    def finish(self) -> dict:
        err, tpo = _sequence_quality(self.records, self.lay)
        checks.at_most(err, AREA_LIMIT[self.name], "area_rel_err")
        return {"area_rel_err": err, "tracks_per_object": tpo, "info": {}}


TUNE_SEEDS = tuple(range(6))  # optimizer seeds of one pass; their cost differs, so every pass runs all


class Tune:
    """``areatrack optimize``: GP/EI over (lambda, theta) on pre-tracked raw records."""

    name = "tune"

    def __init__(self, seed: int):
        self.lay = gen.layout_crowded(seed, frames=20)
        self.frames = self.lay.frames * len(TUNE_SEEDS)  # frames of drive tuned per pass

    def prepare(self, work: Path) -> None:
        manifest = formats.SequenceManifest.load(gen.write_sequence(self.lay, work))
        self.raw, _ = pipeline.run_pipeline(manifest, pipeline.PipelineConfig(smoothing=False))

    def objective(self, point) -> float:
        # the objective of the CLI's optimize command, mode "combined"
        lam, theta = point
        cfg = CdkfConfig(lam=max(lam, 1e-6), theta=max(theta, 1e-6), mode=NoiseMode.COMBINED)
        smoothed = pipeline.smooth_records(self.raw, cfg)
        return pipeline.report_from_records(smoothed, min_track_len=5).objective

    def search(self, seed: int, n_iter: int = 30):
        return bayesopt.optimize(self.objective, bayesopt.SearchSpec(n_init=5, n_iter=n_iter, seed=seed))

    def warm_up(self) -> None:
        self.search(0, n_iter=2)

    def run_pass(self, i: int):
        return [self.search(s) for s in TUNE_SEEDS]

    def check_pass(self, i: int, results) -> None:
        for r in results:
            if len(r.history) != 35 or not all(math.isfinite(v) for _, v in r.history):
                raise checks.CheckFailed("optimizer history is not 35 finite evaluations")
        if i == 0:
            self.first = results[0]

    def finish(self) -> dict:
        checks.same_history(self.first.history, self.search(TUNE_SEEDS[0]).history)
        lam, theta = self.first.best_point
        cfg = CdkfConfig(lam=max(lam, 1e-6), theta=max(theta, 1e-6))
        err, tpo = _sequence_quality(pipeline.smooth_records(self.raw, cfg), self.lay)
        checks.at_most(err, AREA_LIMIT["tune"], "area_rel_err")
        return {"area_rel_err": err, "tracks_per_object": tpo,
                "info": {"tune_best_j": (self.first.best_value, "J")}}


RENDER_PAD_PX = 8
RENDER_RTOL = 1e-5  # float32 storage is ~6e-8; an unconverged ray-caster is far above this


class Render:
    """``areatrack synth``: ray-cast a small scene and write it out."""

    name = "render"

    def __init__(self, seed: int):
        intr = CameraIntrinsics(f_u=350.0, f_v=350.0, p_u=240.0, p_v=135.0, width=480, height=270)
        potholes = (
            synth.PotholeSpec(center=(-0.9, -0.2), a=0.3, b=0.2, depth=0.02),
            synth.PotholeSpec(center=(0.2, 0.15), a=0.3, b=0.22, depth=0.02),
            synth.PotholeSpec(center=(1.0, -0.25), a=0.25, b=0.2, depth=0.02),
        )
        self.spec = synth.SceneSpec(
            intrinsics=intr,
            surface=synth.Surface(kind="tilted", z0=6.0, pitch_deg=8.0, potholes=potholes),
            frames=3,
            camera_path=tuple(synth.CameraPose(position=(0.02 * k, 0.0, 0.1 * k)) for k in range(3)),
            # no depth noise or box jitter: the plane check needs exact depth, and
            # jitter on ~40 px boxes over 3 frames would swamp area_rel_err
            noise=synth.NoiseSpec(conf_noise_std=0.02),
            n_correspondences=60,
            seed=seed,
        )
        self.frames = self.spec.frames
        self.first = None

    def prepare(self, work: Path) -> None:
        self.work = work
        self.out = work / "scene"

    def warm_up(self) -> None:
        synth.write_scene(dataclasses.replace(self.spec, frames=1), self.work / "warm")

    def run_pass(self, i: int):
        return synth.write_scene(self.spec, self.out)

    def check_pass(self, i: int, manifest: Path) -> None:
        digest = hashlib.sha256()
        for f in sorted(self.out.iterdir()):
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        if self.first is None:
            self.first = digest.digest()
        checks.same_bytes(self.first, digest.digest(), "write_scene")

    def _gt_boxes(self) -> dict[int, dict[int, BBox]]:
        boxes: dict[int, dict[int, BBox]] = {}
        for line in (self.out / "gt_boxes.txt").read_text().splitlines()[1:]:
            f = dict(tok.split("=", 1) for tok in line.split())
            per_frame = boxes.setdefault(int(f["frame"]), {})
            per_frame[len(per_frame)] = BBox(float(f["x"]), float(f["y"]), float(f["w"]), float(f["h"]))
        for k in range(self.spec.frames):
            if len(boxes.get(k, {})) != len(self.spec.surface.potholes):
                raise checks.CheckFailed(f"frame {k}: not every pothole has a ground-truth box")
        return boxes

    def _plane_check(self, boxes) -> None:
        intr, t = self.spec.intrinsics, math.tan(math.radians(self.spec.surface.pitch_deg))
        yhat = (np.arange(intr.height, dtype=np.float64) - intr.p_v) / intr.f_v
        for k in range(self.spec.frames):
            cx, cy, cz = self.spec.pose(k).position
            plane = np.repeat(((self.spec.surface.z0 + t * cy - cz) / (1.0 - t * yhat))[:, None],
                              intr.width, axis=1)
            data = (self.out / f"depth_{k:04d}.pfm").read_bytes()
            # the payload is the last 4*w*h bytes, little-endian rows from the bottom
            payload = data[len(data) - 4 * intr.width * intr.height:]
            depth = np.frombuffer(payload, dtype="<f4").reshape(intr.height, intr.width)[::-1]
            inside = np.zeros(depth.shape, dtype=bool)
            for b in boxes[k].values():
                inside[max(0, int(b.y) - RENDER_PAD_PX): int(math.ceil(b.y + b.h)) + RENDER_PAD_PX + 1,
                       max(0, int(b.x) - RENDER_PAD_PX): int(math.ceil(b.x + b.w)) + RENDER_PAD_PX + 1] = True
            checks.plane_depth_outside(depth, plane, inside, RENDER_RTOL)

    def finish(self) -> dict:
        boxes = self._gt_boxes()
        self._plane_check(boxes)
        manifest = formats.SequenceManifest.load(self.out / "manifest.yaml")
        records, _ = pipeline.run_pipeline(manifest, pipeline.PipelineConfig())
        surface = self.spec.surface

        def truth(i, k):
            one = dataclasses.replace(self.spec, surface=dataclasses.replace(
                surface, potholes=(surface.potholes[i],)))
            return gen.ELLIPSE_FACTOR * synth.analytic_rect_footprint_area(one, boxes[k][i], frame=k)

        err, tpo = checks.area_quality(records, lambda k: boxes[k], truth)
        checks.at_most(err, AREA_LIMIT["render"], "area_rel_err")
        return {"area_rel_err": err, "tracks_per_object": tpo, "info": {}}


def make(name: str, seed: int):
    if name == "seq-1080p":
        return Sequence(name, gen.layout_1080p, seed)
    if name == "seq-crowded":
        return Sequence(name, gen.layout_crowded, seed)
    if name == "tune":
        return Tune(seed)
    if name == "render":
        return Render(seed)
    raise KeyError(name)


NAMES = ("seq-1080p", "seq-crowded", "tune", "render")
