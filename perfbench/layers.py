"""The traced layers and the per-layer metrics derived from their spans.

Each timed layer yields ``<module>.<function>.{ms,self_ms,calls}`` per
pass. Probes keep a cheap reference per call; the ratios they feed are
computed after the traced loop, so they add no time inside it.
"""

from __future__ import annotations

import numpy as np

from areatrack import bayesopt, cdkf, formats, geometry, mbtp, metrics, pipeline, projection, synth, tracking

RANSAC_INLIER_PX = 3.0  # the default threshold fit_motion_ransac is called with


def _payload_len(args, kwargs, result):
    return len(args[0])


def _args_and_result(args, kwargs, result):
    return args, result


def _box_and_intrinsics(args, kwargs, result):
    return args[0], args[2]  # not the depth map: holding every frame would swell memory


def _live_tracks(args, kwargs, result):
    return len(args[0].tracks)


def _match_count(args, kwargs, result):
    return len(result.matches)


def _pixel_count(args, kwargs, result):
    return result.width * result.height


# (metric prefix, owner, attribute, probe)
TIMED = [
    ("formats.manifest_load", formats.SequenceManifest, "load", None),
    ("formats.parse_pfm", formats, "parse_pfm", _payload_len),
    ("formats.parse_detections", formats, "parse_detections", None),
    ("formats.parse_motion_file", formats, "parse_motion_file", None),
    ("formats.write_results", formats, "write_results", None),
    ("formats.write_pfm", formats, "write_pfm", None),
    ("pipeline.run_pipeline", pipeline, "run_pipeline", None),
    ("pipeline.smooth_records", pipeline, "smooth_records", None),
    ("tracking.fit_motion_ransac", tracking, "fit_motion_ransac", _args_and_result),
    ("tracking.step", tracking.Tracker, "step", _live_tracks),
    ("tracking.associate", tracking, "associate", _match_count),
    ("tracking.hungarian_solve", tracking, "hungarian_solve", None),
    ("mbtp.estimate_area", mbtp, "estimate_area", _box_and_intrinsics),
    ("mbtp.project_region", mbtp, "project_region", None),
    ("projection.center_distance", projection, "center_distance", None),
    ("cdkf.predict", cdkf, "predict", None),
    ("cdkf.update", cdkf, "update", None),
    ("metrics.area_consistency_report", metrics, "area_consistency_report", None),
    ("bayesopt.optimize", bayesopt, "optimize", None),
    ("bayesopt.gp_fit", bayesopt, "gp_fit", None),
    ("bayesopt.expected_improvement", bayesopt, "expected_improvement", None),
    ("synth.render", synth, "render", None),
    ("synth.render_depth", synth, "render_depth", _pixel_count),
    ("synth.pothole_surface_area", synth, "pothole_surface_area", None),
]
COUNTED = [("geometry.iou", geometry, "iou")]

EXTRA = {
    "formats.parse_pfm.mb_per_s": "MB/s",
    "tracking.ransac_inlier_frac": "ratio",
    "tracking.ransac_identity_fallbacks": "count",
    "mbtp.box_px": "px",
    "mbtp.ns_per_px": "ns/px",
    "mbtp.skipped": "count",
    "geometry.iou.calls": "count",
    "tracking.tracks_live": "count",
    "tracking.matches": "count",
    "synth.render_depth.ns_per_px": "ns/px",
}
TRACE = {
    "trace.untraced_pass_ms": "ms",
    "trace.pass_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.layer_self_ms": "ms",
    "trace.unattributed_ms": "ms",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, *_ in TIMED:
        units.update({f"{name}.ms": "ms", f"{name}.self_ms": "ms", f"{name}.calls": "count"})
    units.update(EXTRA)
    units.update(TRACE)
    return units


def _ransac_stats(calls) -> tuple[float, int]:
    fracs, fallbacks = [], 0
    for args, transform in calls:
        pairs = np.asarray(args[0], dtype=np.float64)
        src, dst = pairs[:, 0], pairs[:, 1]
        m = transform.m
        err = np.linalg.norm(src @ m[:2, :2].T + m[:2, 2] - dst, axis=1)
        fracs.append(float(np.mean(err < RANSAC_INLIER_PX)))
        fallbacks += bool(np.array_equal(m, np.eye(3)))
    return (float(np.mean(fracs)) if fracs else 0.0), fallbacks


def _box_pixels(calls) -> int:
    total = 0
    for box, intr in calls:
        u0, u1, v0, v1 = geometry.pixel_grid(box, intr)
        total += max(0, u1 - u0) * max(0, v1 - v0)
    return total


def per_layer(tracer, untraced_ms: float, traced_ms: float) -> dict[str, float]:
    """Per-pass means over the traced passes of one run."""
    totals = tracer.totals()  # a defaultdict: layers the workload never calls read as zero
    passes = max(1, totals["pass"]["calls"])
    out: dict[str, float] = {}
    for name, *_ in TIMED:
        t = totals[name]
        out[f"{name}.ms"] = t["ns"] / 1e6 / passes
        out[f"{name}.self_ms"] = t["self_ns"] / 1e6 / passes
        out[f"{name}.calls"] = t["calls"] / passes

    def ns(name):
        return totals[name]["ns"]

    pfm_bytes = sum(tracer.probes["formats.parse_pfm"])
    out["formats.parse_pfm.mb_per_s"] = pfm_bytes / 1e6 / (ns("formats.parse_pfm") / 1e9) if pfm_bytes else 0.0
    frac, fallbacks = _ransac_stats(tracer.probes["tracking.fit_motion_ransac"])
    out["tracking.ransac_inlier_frac"] = frac
    out["tracking.ransac_identity_fallbacks"] = fallbacks / passes
    areas = tracer.probes["mbtp.estimate_area"]
    px = _box_pixels(areas)
    out["mbtp.box_px"] = px / len(areas) if areas else 0.0
    out["mbtp.ns_per_px"] = ns("mbtp.estimate_area") / px if px else 0.0
    out["mbtp.skipped"] = totals["mbtp.estimate_area"]["errors"] / passes
    out["geometry.iou.calls"] = tracer.counts["geometry.iou"] / passes
    live = tracer.probes["tracking.step"]
    out["tracking.tracks_live"] = float(np.mean(live)) if live else 0.0
    matches = tracer.probes["tracking.associate"]
    out["tracking.matches"] = float(np.mean(matches)) if matches else 0.0
    rendered = sum(tracer.probes["synth.render_depth"])
    out["synth.render_depth.ns_per_px"] = ns("synth.render_depth") / rendered if rendered else 0.0

    layer_self = sum(t["self_ns"] for name, t in totals.items() if name != "pass")
    out["trace.untraced_pass_ms"] = untraced_ms
    out["trace.pass_ms"] = traced_ms
    out["trace.overhead_ms"] = traced_ms - untraced_ms
    out["trace.layer_self_ms"] = layer_self / 1e6 / passes
    out["trace.unattributed_ms"] = totals["pass"]["self_ns"] / 1e6 / passes
    return out
