"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from areatrack.formats import FrameResultRecord  # noqa: E402
from areatrack.geometry import BBox  # noqa: E402

SMALL = {
    "1080p": lambda seed: dataclasses.replace(gen.layout_1080p(seed), frames=2),
    "crowded": lambda seed: gen.layout_crowded(seed, frames=3),
}


def _files(d: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_generator_is_deterministic_per_seed(tmp_path, kind):
    make = SMALL[kind]
    gen.write_sequence(make(7), tmp_path / "a")
    gen.write_sequence(make(7), tmp_path / "b")
    gen.write_sequence(make(8), tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a["depth_0001.pfm"] != c["depth_0001.pfm"]
    assert a["dets_0001.txt"] != c["dets_0001.txt"]


def test_generated_plane_depth_is_exact_away_from_depressions():
    lay = dataclasses.replace(gen.layout_crowded(1), depth_rel_std=0.0)
    z = gen.exact_depth(lay, 2)
    cx, cy = lay.camera(2)
    yhat = (np.arange(lay.intr.height) - lay.intr.p_v) / lay.intr.f_v
    # a world point on the ray at the closed-form depth lies on the plane
    world_y = cy + z[:, 0] * yhat
    assert np.allclose(z[:, 0], lay.z0 + lay.slope * world_y, rtol=0, atol=1e-12)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == harness.E2E_UNITS
    assert per_layer == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq-1080p", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(want)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq-1080p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert "{" not in p.stdout


def test_flipped_result_byte_trips_the_identity_check():
    wl = workloads.make("seq-1080p", 1)
    text = "format_version=1\nframe=0 track_id=1 area_smoothed_m2=0.12345678\n"
    wl.check_pass(0, text)
    wl.check_pass(1, text)
    flipped = text[:-3] + ("0" if text[-3] != "0" else "1") + text[-2:]
    with pytest.raises(checks.CheckFailed):
        wl.check_pass(2, flipped)


def _record(frame, track, area, box):
    return FrameResultRecord(frame=frame, track_id=track, class_id=0, bbox=box, confidence=0.9,
                             distance_m=6.0, area_raw_m2=area, area_smoothed_m2=area, nis=0.0,
                             valid_patch_fraction=1.0)


def test_perturbed_areas_trip_the_sanity_limit():
    boxes = {0: BBox(10, 10, 20, 20), 1: BBox(100, 10, 20, 20)}
    good = [_record(k, t + 1, 1.05, boxes[t]) for k in range(3) for t in boxes]
    err, tpo = checks.area_quality(good, lambda k: boxes, lambda i, k: 1.0)
    assert err == pytest.approx(0.05) and tpo == 1.0
    checks.at_most(err, workloads.AREA_LIMIT["seq-1080p"], "area_rel_err")
    bad = [dataclasses.replace(r, area_smoothed_m2=3.0 * r.area_smoothed_m2) for r in good]
    err, _ = checks.area_quality(bad, lambda k: boxes, lambda i, k: 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.at_most(err, workloads.AREA_LIMIT["seq-1080p"], "area_rel_err")
    with pytest.raises(checks.CheckFailed):
        checks.at_most(float("nan"), 1.0, "area_rel_err")


def test_split_track_raises_tracks_per_object():
    box = BBox(10, 10, 20, 20)
    recs = [_record(0, 1, 1.0, box), _record(1, 2, 1.0, box)]
    _, tpo = checks.area_quality(recs, lambda k: {0: box}, lambda i, k: 1.0)
    assert tpo == 2.0


def test_changed_history_trips_the_determinism_check():
    h = [((0.1, 0.2), 1.5), ((0.3, 0.4), 1.2)]
    checks.same_history(h, list(h))
    with pytest.raises(checks.CheckFailed):
        checks.same_history(h, [h[0], ((0.3, 0.4), 1.2000000001)])


def test_off_plane_pixel_trips_the_renderer_check(tmp_path):
    wl = workloads.make("render", 1)
    wl.prepare(tmp_path)
    wl.run_pass(0)
    boxes = wl._gt_boxes()
    wl._plane_check(boxes)  # the renderer as it stands passes

    path = tmp_path / "scene" / "depth_0001.pfm"
    data = bytearray(path.read_bytes())
    header = len(data) - 4 * wl.spec.intrinsics.width * wl.spec.intrinsics.height
    # bottom-left pixel of the image, far from every depression
    value = np.frombuffer(bytes(data[header:header + 4]), dtype="<f4")[0]
    data[header:header + 4] = np.float32(value * (1 + 1e-4)).astype("<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed):
        wl._plane_check(boxes)
