import dataclasses
import gc
import math
import mmap
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, seed, settings, strategies as st

from areatrack import cdkf, formats, pipeline
from areatrack.cdkf import CdkfConfig, CdkfState, NoiseMode
from areatrack.cli import main
from areatrack.errors import AreatrackError, ZeroConfidence
from areatrack.geometry import BBox, CameraIntrinsics, DepthMap
from areatrack.mbtp import estimate_area
from areatrack.pipeline import (
    FrameProcessingError,
    PipelineConfig,
    report_from_records,
    run_pipeline,
    smooth_records,
)
from areatrack.synth import (
    CameraPose,
    NoiseSpec,
    PotholeSpec,
    SceneSpec,
    Surface,
    write_scene,
)

from test_metrics import outcome, reference_consistency_report

INTR = CameraIntrinsics(f_u=300.0, f_v=300.0, p_u=160.0, p_v=120.0, width=320, height=240)

TRUE_AREA = math.pi * 0.3 * 0.2


def approach_scene(frames=10, seed=0, noisy=True) -> SceneSpec:
    """Camera drives toward a single shallow depression on a flat surface."""
    noise = (
        NoiseSpec(box_jitter_px=0.6, depth_rel_std=0.004, conf_noise_std=0.02)
        if noisy
        else NoiseSpec()
    )
    return SceneSpec(
        intrinsics=INTR,
        surface=Surface(
            kind="plane", z0=6.0,
            potholes=(PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.015),),
        ),
        frames=frames,
        camera_path=tuple(CameraPose(position=(0.0, 0.0, 0.15 * k)) for k in range(frames)),
        noise=noise,
        n_correspondences=60,
        seed=seed,
    )


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    manifest = write_scene(approach_scene(), out)
    return out, manifest


@pytest.fixture(scope="module")
def fuzz_dir(scene_dir, tmp_path_factory):
    """A copy of the scene plus a results file and a transform motion file."""
    src, manifest_path = scene_dir
    out = tmp_path_factory.mktemp("fuzz")
    for f in src.iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    records, _ = run_pipeline(formats.SequenceManifest.load(manifest_path), PipelineConfig())
    (out / "results.txt").write_text(formats.write_results(records))
    (out / "transform.txt").write_text(formats.write_records(["transform", "1 0 1.5", "0 1 -0.5", "0 0 1"]))
    return out


# tokens and lines a damaged or hand-edited record file might hold
_BAD_VALUES = st.sampled_from(
    ["0", "-1", "0.5", "2", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "", "x", "=", "transform"]
)
_BAD_LINES = st.sampled_from(
    ["", "# c", "format_version=1", "format_version=1 2", "transform", "1 0 0", "1 2 3 4", "=", "a=b"]
)


@st.composite
def corrupted(draw, text: str) -> str:
    """``text`` after one to three edits, each replacing a value, dropping
    or inserting a token, or inserting a line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        op = draw(st.sampled_from(["value", "drop", "insert", "line"]))
        if op == "line" or not tokens:
            lines.insert(i, draw(_BAD_LINES))
            continue
        j = draw(st.integers(0, len(tokens) - 1))
        if op == "value":
            key, eq, _ = tokens[j].partition("=")
            tokens[j] = key + eq + draw(_BAD_VALUES) if eq else draw(_BAD_VALUES)
        elif op == "drop":
            del tokens[j]
        else:
            tokens.insert(j, draw(_BAD_VALUES))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


_BAD_MANIFEST_VALUES = st.sampled_from(
    [5, None, "x", -1, 0, 1e308, float("nan"), float("inf"), True, "", ".", "manifest.yaml",
     "missing.txt", [], [1], {}, {"frame": 0}]
)


@st.composite
def corrupted_manifest(draw, data: bytes) -> bytes:
    """The manifest ``data`` with one key of its top level, its intrinsics
    or one frame entry set to a bad value or deleted, written as YAML and
    sometimes cut short."""
    doc = yaml.safe_load(data)
    frame = draw(st.sampled_from(doc["frames"]))
    # the top-level keys the loader reads come first, where hypothesis looks most
    target, key = draw(st.sampled_from(
        [(doc, "frames"), (doc, "fps"), (doc, "intrinsics"), (doc, "dataset"), (doc, "extra")]
        + [(doc["intrinsics"], k) for k in doc["intrinsics"]]
        + [(frame, k) for k in frame] + [(frame, "extra")]
    ))
    if key in target and draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_BAD_MANIFEST_VALUES)
    text = yaml.safe_dump(doc, sort_keys=False).encode()
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def corrupted_pfm(draw, data: bytes) -> bytes:
    """The PFM file ``data`` after one to three edits of its magic,
    dimension or scale line, its payload length or a block of its values."""
    *lines, payload = data.split(b"\n", 3)
    width, height = map(int, lines[1].split())
    for _ in range(draw(st.integers(1, 3))):
        # payload edits first: most header edits end the run at the header
        op = draw(st.sampled_from(["values", "scale", "length", "dims", "magic"]))
        if op == "magic":
            lines[0] = draw(st.sampled_from([b"PF", b"P5", b"pf", b"", b"Pf Pf"]))
        elif op == "dims":
            lines[1] = draw(st.sampled_from(
                [b"0 0", b"-1 240", b"320", b"x 240", b"320 240 1", b"240 320", b"321 240",
                 b"100000 100000", b"1e3 240", b""]))
        elif op == "scale":
            lines[2] = draw(st.sampled_from([b"1.0", b"0", b"nan", b"inf", b"x", b"", b"-1 2"]))
        elif op == "length":
            cut = draw(st.integers(0, len(payload) + 8))
            payload = payload[:cut] + b"\0" * max(0, cut - len(payload))
        else:
            n = len(payload) // 4
            z = np.frombuffer(payload[: 4 * n], dtype="<f4").copy()
            if n == width * height:
                v0, u0 = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
                v1, u1 = draw(st.integers(v0 + 1, height)), draw(st.integers(u0 + 1, width))
                block = z.reshape(height, width)[v0:v1, u0:u1]
                block[...] = draw(st.sampled_from(
                    [np.nan, np.inf, -np.inf, -1.0, 0.0, 1e-38, 1e38, 3.4e38]))
            payload = z.tobytes() + payload[4 * n:]
    return b"\n".join(lines) + b"\n" + payload


def _open_fds() -> int | None:
    """This process's open file descriptors, where Linux's /proc lists them."""
    fd_dir = Path("/proc/self/fd")
    return len(os.listdir(fd_dir)) if fd_dir.is_dir() else None


def _buffer_owner(a: np.ndarray):
    """The object whose buffer an array views, or the array if it owns its data."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def _blank_depth_around_box(entry: formats.FrameEntry, checkerboard: bool = False) -> BBox:
    """Set the depth of ``entry``'s frame to NaN over its one detection
    box and a margin, or, with ``checkerboard``, on every other pixel of
    them, so that no 2x2 patch is left whole; returns the box."""
    depth = formats.parse_pfm(entry.depth.read_bytes())
    (det,) = formats.parse_detections(entry.detections.read_text())[entry.frame]
    b = det.bbox
    z = np.array(depth.values)
    u0, v0 = int(b.x) - 2, int(b.y) - 2
    block = z[v0:int(b.bottom) + 3, u0:u0 + int(b.w + 5)]
    h, w = block.shape
    holes = np.add.outer(np.arange(h), np.arange(w)) % 2 == 0 if checkerboard else np.ones((h, w), bool)
    block[holes] = np.nan
    entry.depth.write_bytes(formats.write_pfm(DepthMap(depth.width, depth.height, z)))
    return b


class TestRunPipeline:
    def test_end_to_end_single_track(self, scene_dir):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        records, report = run_pipeline(manifest, PipelineConfig())
        assert len(records) == 10
        assert {r.track_id for r in records} == {1}
        assert report.track_count == 1
        # smoothed areas settle near the true elliptical opening
        assert records[-1].area_smoothed_m2 == pytest.approx(TRUE_AREA, rel=0.05)
        for r in records:
            assert r.distance_m > 0
            assert 0.0 < r.valid_patch_fraction <= 1.0

    def test_deterministic_output(self, scene_dir):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        r1, _ = run_pipeline(manifest, PipelineConfig())
        r2, _ = run_pipeline(manifest, PipelineConfig())
        assert formats.write_results(r1) == formats.write_results(r2)

    def test_smoothing_reduces_frame_to_frame_jitter(self, scene_dir):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        records, smoothed_rep = run_pipeline(manifest, PipelineConfig())
        raw_rep = report_from_records([r.smoothed(r.area_raw_m2, 0.0) for r in records])
        assert smoothed_rep.afd < raw_rep.afd

    def test_no_smoothing_passthrough(self, scene_dir):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        records, report = run_pipeline(manifest, PipelineConfig(smoothing=False))
        for r in records:
            assert r.area_smoothed_m2 == r.area_raw_m2
            assert r.nis == 0.0
        # so the report over the smoothed columns is what eval-area --raw scores
        assert report == report_from_records([r.smoothed(r.area_raw_m2, 0.0) for r in records])

    def test_smooth_records_matches_inline_smoothing(self, scene_dir):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        cfg = CdkfConfig(lam=0.8, theta=0.5)
        inline, _ = run_pipeline(manifest, PipelineConfig(cdkf=cfg))
        raw, _ = run_pipeline(manifest, PipelineConfig(smoothing=False))
        assert smooth_records(raw, cfg) == inline

    def test_skipped_detections_leave_no_record(self, tmp_path, caplog):
        manifest_path = write_scene(approach_scene(), tmp_path)
        manifest = formats.SequenceManifest.load(manifest_path)
        # frame 3 loses all depth over the pothole box
        entry = manifest.frames[3]
        b = _blank_depth_around_box(entry)
        config = PipelineConfig()
        records, _ = run_pipeline(manifest, config)
        assert f"frame 3: box {b}: no valid depth" in caplog.text
        assert [r.frame for r in records] == [0, 1, 2, 4, 5, 6, 7, 8, 9]
        raw, _ = run_pipeline(manifest, dataclasses.replace(config, smoothing=False))
        assert records == smooth_records(raw, config.cdkf)

    def test_track_coasts_through_a_frame_without_depth(self, tmp_path):
        """An unmeasurable detection of a live track acts as no detection:
        the track coasts through that frame and keeps its id after it."""
        config = PipelineConfig(smoothing=False)
        blanked = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path / "nan"))
        _blank_depth_around_box(blanked.frames[3])
        missing = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path / "gone"))
        missing.frames[3].detections.write_text(formats.write_records([]))
        records, _ = run_pipeline(blanked, config)
        assert [(r.frame, r.track_id) for r in records] == [(k, 1) for k in (0, 1, 2, 4, 5, 6, 7, 8, 9)]
        assert records == run_pipeline(missing, config)[0]

    def test_track_coasts_through_a_frame_without_a_valid_patch(self, tmp_path, caplog):
        """A box whose valid depth holds no whole 2x2 patch has no
        measurement: the box is skipped before tracking."""
        holed = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path / "holes"))
        b = _blank_depth_around_box(holed.frames[3], checkerboard=True)
        missing = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path / "gone"))
        missing.frames[3].detections.write_text(formats.write_records([]))
        records, _ = run_pipeline(holed, PipelineConfig())
        assert f"frame 3: box {b}: the box has no 2x2 patch of valid depth, skipping" in caplog.text
        assert records == run_pipeline(missing, PipelineConfig())[0]

    @pytest.mark.parametrize("box", ["x=100 y=100 w=0 h=20", "x=5000 y=100 w=30 h=20",
                                     "x=4 y=4 w=20 h=12", "x=0 y=100 w=1e308 h=20",
                                     "x=100 y=100 w=0.5 h=20"],
                             ids=["zero-width", "off-image", "no-depth", "larger-than-image",
                                  "no-patch"])
    def test_unmeasurable_box_first_in_the_sequence_costs_only_itself(self, tmp_path, caplog, box):
        # listed first in frame 0, the box would take track id 1 if it were tracked
        manifest = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path))
        entry = manifest.frames[0]
        depth = formats.parse_pfm(entry.depth.read_bytes())
        z = np.array(depth.values)
        z[:20, :28] = np.nan  # the no-depth box lies inside this corner, the pothole far from it
        entry.depth.write_bytes(formats.write_pfm(DepthMap(depth.width, depth.height, z)))
        clean = formats.write_results(run_pipeline(manifest, PipelineConfig())[0])
        header, rest = entry.detections.read_text().split("\n", 1)
        entry.detections.write_text(f"{header}\nframe=0 class_id=0 {box} confidence=0.9\n{rest}")
        records, _ = run_pipeline(manifest, PipelineConfig())
        assert "frame 0: box BBox(" in caplog.text
        # each skip line names its box once, whatever the skip
        skips = [r.getMessage() for r in caplog.records if r.getMessage().endswith(", skipping")]
        assert skips and all(m.count("BBox(") == 1 for m in skips), skips
        assert formats.write_results(records) == clean

    def test_equal_detections_are_two_tracks_with_their_own_estimates(self, tmp_path):
        manifest = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path))
        single, _ = run_pipeline(manifest, PipelineConfig())
        for entry in manifest.frames:
            header, rest = entry.detections.read_text().split("\n", 1)
            entry.detections.write_text(f"{header}\n{rest}{rest}")
        records, _ = run_pipeline(manifest, PipelineConfig())
        assert [(r.frame, r.track_id) for r in records] == [(s.frame, t) for s in single for t in (1, 2)]
        for r, s in zip(records, [s for s in single for _ in (1, 2)]):
            assert dataclasses.replace(r, track_id=1) == s

    def test_each_record_is_its_own_detections(self, tmp_path, caplog):
        # frame 0 lists a box larger than the image, a box on no depth, then
        # the pothole and a manhole box: the records are the last two, in order
        manifest = formats.SequenceManifest.load(write_scene(approach_scene(), tmp_path))
        entry = manifest.frames[0]
        depth = formats.parse_pfm(entry.depth.read_bytes())
        z = np.array(depth.values)
        z[:20, :28] = np.nan
        depth = DepthMap(depth.width, depth.height, z)
        entry.depth.write_bytes(formats.write_pfm(depth))
        header, rest = entry.detections.read_text().split("\n", 1)
        entry.detections.write_text(
            f"{header}\nframe=0 class_id=0 x=0 y=100 w=1e308 h=20 confidence=0.9\n"
            f"frame=0 class_id=0 x=4 y=4 w=20 h=12 confidence=0.9\n"
            f"{rest}frame=0 class_id=1 x=200 y=150 w=30 h=20 confidence=0.7\n")
        dets = formats.parse_file(entry.detections, formats.parse_detections)[0]
        records, _ = run_pipeline(manifest, PipelineConfig(smoothing=False))
        assert len([r for r in caplog.records if r.getMessage().endswith(", skipping")]) == 2
        got = [(r.bbox, r.class_id, r.confidence, r.area_raw_m2) for r in records if r.frame == 0]
        want = [(d.bbox, d.class_id, d.confidence, estimate_area(d.bbox, depth, INTR).area_m2)
                for d in dets[2:]]
        assert got == want

    @pytest.mark.parametrize("files", [10, 2, 1], ids=["per-frame", "interleaved", "shared"])
    def test_each_detections_file_parsed_once(self, scene_dir, tmp_path, monkeypatch, files):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        want = formats.write_results(run_pipeline(manifest, PipelineConfig())[0])
        # frame k reads file k % files, which holds the detections of all its frames
        paths = [tmp_path / f"dets_{i}.txt" for i in range(files)]
        for i, path in enumerate(paths):
            path.write_text("".join(e.detections.read_text() for e in manifest.frames[i::files]))
        shared = dataclasses.replace(manifest, frames=[
            dataclasses.replace(e, detections=paths[k % files]) for k, e in enumerate(manifest.frames)])
        parsed = []
        monkeypatch.setattr(pipeline, "parse_detections",
                            lambda text: parsed.append(text) or formats.parse_detections(text))
        records, _ = run_pipeline(shared, PipelineConfig())
        assert sorted(parsed) == sorted(path.read_text() for path in paths)
        assert formats.write_results(records) == want

    @pytest.mark.parametrize("kind", ["little", "big", "trailing"])
    def test_mapped_depth_equals_read_bytes(self, tmp_path, kind):
        rng = np.random.default_rng(6)
        vals = rng.uniform(0.5, 30.0, (9, 13)).astype(np.float32)
        vals[4, 5] = np.nan
        path = tmp_path / "depth.pfm"
        path.write_bytes({
            "little": formats.write_pfm(DepthMap(13, 9, vals)),
            "big": b"Pf\n13 9\n1.0\n" + vals[::-1].astype(">f4").tobytes(),
            "trailing": formats.write_pfm(DepthMap(13, 9, vals)) + b"\x00\xff junk\n",
        }[kind])
        got, want = pipeline._load_depth(path), formats.parse_pfm(path.read_bytes())
        assert (got.width, got.height) == (want.width, want.height)
        assert got.values.dtype == want.values.dtype == np.float32
        assert got.values.tobytes() == want.values.tobytes()
        assert not got.values.flags.writeable
        with pytest.raises(ValueError):
            got.values[0, 0] = 1.0
        # a little-endian map views the mapping; a big-endian one is a copy
        assert isinstance(_buffer_owner(got.values), mmap.mmap) == (kind != "big")

    def test_empty_motion_path_names_its_frame(self, scene_dir, tmp_path):
        """``motion: ''`` names the manifest's directory: it loads, and fails
        at its frame like a directory given for ``depth``."""
        src, _ = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        manifest_path = tmp_path / "manifest.yaml"
        doc = yaml.safe_load(manifest_path.read_text())
        doc["frames"][1]["motion"] = ""
        manifest_path.write_text(yaml.safe_dump(doc))
        manifest = formats.SequenceManifest.load(manifest_path)
        assert manifest.frames[1].motion == tmp_path
        with pytest.raises(FrameProcessingError, match="^frame 1: ") as err:
            run_pipeline(manifest, PipelineConfig())
        assert err.value.frame == 1

    @pytest.mark.parametrize("kind", ["empty", "header-cut", "header-only", "nan-scale", "directory"])
    def test_unreadable_depth_file_names_its_frame(self, scene_dir, tmp_path, kind):
        src, _ = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        depth = tmp_path / "depth_0001.pfm"
        if kind == "directory":
            depth.unlink()
            depth.mkdir()
        else:
            header = f"Pf\n{INTR.width} {INTR.height}\n".encode()
            depth.write_bytes({
                "empty": b"",
                "header-cut": header[:-1],
                "header-only": header + b"-1.0\n",
                "nan-scale": header + b"nan\n" + depth.read_bytes()[len(header) + 5:],
            }[kind])
        gc.collect()  # close what earlier tests left in reference cycles before counting
        fds = _open_fds()
        with pytest.raises((AreatrackError, OSError)) as err:
            pipeline._load_depth(depth)
        # a bad file's mapping is closed at once, not when the error is freed
        assert _open_fds() == fds, err.value
        manifest_path = tmp_path / "manifest.yaml"
        with pytest.raises(FrameProcessingError, match="^frame 1: ") as err:
            run_pipeline(formats.SequenceManifest.load(manifest_path), PipelineConfig())
        assert err.value.frame == 1
        # the error's traceback holds no earlier frame's depth map or its mapping
        assert _open_fds() == fds, err.value
        res = CliRunner().invoke(main, ["estimate", "--manifest", str(manifest_path)])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "error: frame 1: " in res.output

    @pytest.mark.skipif(_open_fds() is None, reason="needs /proc/self/fd")
    def test_no_depth_mapping_outlives_its_frame(self, scene_dir):
        _, manifest_path = scene_dir
        manifest = formats.SequenceManifest.load(manifest_path)
        before = _open_fds()
        depth = pipeline._load_depth(manifest.frames[0].depth)
        # a live map holds its mapping, and the mapping a file descriptor
        assert _open_fds() == before + 1
        del depth
        assert _open_fds() == before
        run_pipeline(manifest, PipelineConfig())
        assert _open_fds() == before

    def test_empty_detection_frames_ok(self, tmp_path):
        # a scene where the depression leaves the view partway through still
        # processes end to end
        spec = SceneSpec(
            intrinsics=INTR,
            surface=Surface(
                kind="plane", z0=6.0,
                potholes=(PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.015),),
            ),
            frames=4,
            camera_path=tuple(
                CameraPose(position=(2.5 * k, 0.0, 0.0)) for k in range(4)
            ),
            n_correspondences=60,
            seed=1,
        )
        manifest_path = write_scene(spec, tmp_path)
        manifest = formats.SequenceManifest.load(manifest_path)
        records, _ = run_pipeline(manifest, PipelineConfig())
        frames_with_output = {r.frame for r in records}
        assert 0 in frames_with_output
        assert 3 not in frames_with_output


# The record-by-record loop that the all-tracks pass replaced, kept as the
# oracle: one scalar filter per track, records in (frame, track_id) order.


def reference_smooth_records(records, cfg):
    states: dict[int, CdkfState] = {}
    out = []
    for r in sorted(records, key=lambda r: (r.frame, r.track_id)):
        state = states.get(r.track_id)
        state = CdkfState() if state is None else cdkf.predict(state)
        state = cdkf.update(state, r.area_raw_m2, r.confidence, r.distance_m, cfg)
        states[r.track_id] = state
        out.append(dataclasses.replace(r, area_smoothed_m2=state.A, nis=state.last_nis))
    return out


def reference_report_from_records(records, min_track_len=5):
    areas: dict[int, list[float]] = {}
    nis: dict[int, list[float]] = {}
    for r in records:
        if r.class_id != 0:
            continue
        areas.setdefault(r.track_id, []).append(r.area_smoothed_m2)
        if len(areas[r.track_id]) > 1:
            nis.setdefault(r.track_id, []).append(r.nis)
    return reference_consistency_report(areas, nis, min_track_len=min_track_len)


def record(frame, track_id, area, confidence=0.9, distance=5.0, class_id=0, nis=0.0):
    return formats.FrameResultRecord(
        frame=frame, track_id=track_id, class_id=class_id,
        bbox=BBox(0, 0, 10, 10), confidence=confidence, distance_m=distance,
        area_raw_m2=area, area_smoothed_m2=area, nis=nis, valid_patch_fraction=1.0,
    )


@st.composite
def raw_records(draw):
    """Raw records of 0-60 tracks of 1-150 records each, shuffled. Frames
    skip up to 3 between records and sometimes repeat, giving repeated
    (frame, track_id) rows; some tracks are manholes, and some distances
    are NaN or infinite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tracks, max_len = draw(st.integers(0, 60)), draw(st.integers(1, 150))
    special = draw(st.sampled_from([0.0, 0.02]))
    records = []
    for track_id in rng.permutation(10 * n_tracks + 1)[:n_tracks].tolist():
        n = int(rng.integers(1, max_len + 1))
        frames = int(rng.integers(0, 50)) + np.cumsum(rng.integers(0, 4, n))
        distance = rng.uniform(1.0, 20.0, n)
        mask = rng.random(n) < special
        distance[mask] = rng.choice([np.nan, np.inf], mask.sum())
        class_id = int(rng.random() < 0.1)
        records += [
            record(f, track_id, a, confidence=c, distance=d, class_id=class_id)
            for f, a, c, d in zip(frames.tolist(), rng.uniform(0.01, 1.0, n).tolist(),
                                  rng.uniform(0.01, 1.0, n).tolist(), distance.tolist())
        ]
    return [records[i] for i in rng.permutation(len(records)).tolist()]


_WEIGHTS = st.sampled_from([0.0, 1e-6, 0.3, 1.0, 2.5, 1e6, 1e300])


class TestSmoothRecords:
    @settings(max_examples=100, deadline=None)
    @given(records=raw_records(), lam=_WEIGHTS, theta=_WEIGHTS, mode=st.sampled_from(NoiseMode))
    def test_matches_per_record_reference(self, records, lam, theta, mode):
        cfg = CdkfConfig(lam=lam, theta=theta, mode=mode)
        before = repr(records)
        with np.errstate(all="ignore"):
            got = smooth_records(records, cfg)
            want = reference_smooth_records(records, cfg)
        assert [r.area_smoothed_m2.hex() for r in got] == [r.area_smoothed_m2.hex() for r in want]
        assert [r.nis.hex() for r in got] == [r.nis.hex() for r in want]
        assert repr(got) == repr(want)
        for min_track_len in (1, 2, 5, 12):
            assert outcome(report_from_records, got, min_track_len) == outcome(
                reference_report_from_records, want, min_track_len)
        # the copies skip __init__: each must still be a whole frozen record
        for r in got:
            assert type(r) is formats.FrameResultRecord
            twin = dataclasses.replace(r)
            assert r == twin and hash(r) == hash(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.nis = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.area_smoothed_m2 = 1.0
        assert repr(records) == before  # the copies share no state with the input

    def test_zero_confidence_names_first_record_in_frame_order(self):
        records = [record(2, 1, 0.2, confidence=-0.5), record(0, 1, 0.2), record(0, 2, 0.3),
                   record(1, 2, 0.3, confidence=0.0), record(1, 1, 0.2)]
        for smooth in (smooth_records, reference_smooth_records):
            with pytest.raises(ZeroConfidence, match=r"^confidence must be > 0, got 0\.0$"):
                smooth(records, CdkfConfig())

    def test_empty(self):
        assert smooth_records([], CdkfConfig()) == []
        rep = report_from_records([])
        assert (rep.track_count, rep.objective) == (0, 0.0)

    def test_long_track_matches_reference(self):
        # one 3000-measurement track shuffled among three short ones, some with repeated frames
        rng = np.random.default_rng(3)
        records = [record(f, 7, a, confidence=c, distance=d) for f, a, c, d in zip(
            range(3000), rng.uniform(0.01, 1.0, 3000).tolist(),
            rng.uniform(0.01, 1.0, 3000).tolist(), rng.uniform(1.0, 20.0, 3000).tolist())]
        for track_id in (1, 2, 9):
            frames = [0, 1, 1, 2, 2, 2, 5][: 2 * track_id]  # repeated (frame, track_id) rows
            records += [record(f, track_id, 0.1 * track_id + 0.01 * k)
                        for k, f in enumerate(frames)]
        records = [records[i] for i in rng.permutation(len(records)).tolist()]
        for lam, theta in ((1.0, 1.0), (0.0, 0.0), (1e300, 0.3)):
            cfg = CdkfConfig(lam=lam, theta=theta)
            got = smooth_records(records, cfg)
            want = reference_smooth_records(records, cfg)
            assert [r.area_smoothed_m2.hex() for r in got] == [r.area_smoothed_m2.hex() for r in want]
            assert [r.nis.hex() for r in got] == [r.nis.hex() for r in want]
            assert repr(got) == repr(want)

    def test_repeated_row_is_the_next_update(self):
        records = [record(0, 1, 0.2), record(1, 1, 0.4), record(1, 1, 0.3)]
        got = smooth_records(records, CdkfConfig())
        assert got == reference_smooth_records(records, CdkfConfig())
        assert got[2].area_smoothed_m2 != got[1].area_smoothed_m2


class TestReportFiltering:
    def test_manhole_class_excluded(self):
        records = [record(k, 1, 0.2) for k in range(6)]
        records += [record(k, 2, 0.5, class_id=1) for k in range(6)]
        rep = report_from_records(records)
        assert rep.track_count == 1
        assert rep.per_track[0].track_id == 1

    def test_first_update_nis_excluded(self):
        records = [record(k, 1, 0.2, nis=1.0) for k in range(6)]
        rep = report_from_records(records)
        # 6 records but only 5 innovations enter the NIS average
        assert rep.nis_mean == pytest.approx(1.0)


# phrasings of Python's own TypeError and ValueError texts, which a data error should not show
_PYTHON_WORDING = ("positional argument", "unexpected keyword", "object is not", "not subscriptable",
                   "unsupported operand", "invalid literal", "could not convert")


def assert_clean_exit(res) -> None:
    """Exit code 0, or 1 through ``sys.exit`` with an error in the program's
    words, not Python's; never a traceback."""
    assert res.exit_code in (0, 1), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 1:
        assert [w for w in _PYTHON_WORDING if w in res.output] == [], res.output


class TestCli:
    def test_estimate_and_eval_area(self, scene_dir, tmp_path):
        scene, manifest_path = scene_dir
        runner = CliRunner()
        out = tmp_path / "results.txt"
        res = runner.invoke(
            main,
            ["estimate", "--manifest", str(manifest_path), "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        records = formats.parse_results(out.read_text())
        assert len(records) == 10

        res = runner.invoke(main, ["eval-area", "--results", str(out)])
        assert res.exit_code == 0, res.output
        assert "objective_j=" in res.output
        assert "track=1" in res.output

    def test_estimate_stdout_deterministic(self, scene_dir):
        _, manifest_path = scene_dir
        runner = CliRunner()
        r1 = runner.invoke(main, ["estimate", "--manifest", str(manifest_path)])
        r2 = runner.invoke(main, ["estimate", "--manifest", str(manifest_path)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert r1.output == r2.output

    def test_eval_det_against_gt(self, scene_dir):
        scene, _ = scene_dir
        runner = CliRunner()
        # score the noisy detections against the rendered ground truth
        dets = scene / "all_dets.txt"
        merged = {}
        for k in range(10):
            merged.update(formats.parse_detections((scene / f"dets_{k:04d}.txt").read_text()))
        dets.write_text(formats.write_detections(merged))
        res = runner.invoke(
            main,
            ["eval-det", "--dets", str(dets), "--gt", str(scene / "gt_boxes.txt"), "--iou", "0.5"],
        )
        assert res.exit_code == 0, res.output
        assert "recall=1.0000" in res.output
        assert "ap50=" in res.output

    def test_synth_command(self, tmp_path):
        doc = {
            "intrinsics": {"f_u": 300.0, "f_v": 300.0, "p_u": 160.0, "p_v": 120.0,
                           "width": 320, "height": 240},
            "surface": {
                "kind": "plane", "z0": 6.0,
                "potholes": [{"center": [0.0, 0.0], "a": 0.3, "b": 0.2, "depth": 0.015}],
            },
            "frames": 2,
            "seed": 0,
        }
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rendered"
        runner = CliRunner()
        res = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = formats.SequenceManifest.load(out / "manifest.yaml")
        assert len(manifest.frames) == 2
        assert (out / "gt_areas.txt").exists()
        # --seed replaces the spec's seed before the spec is checked
        spec_path.write_text(yaml.safe_dump({**doc, "seed": -1}))
        res = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(out),
                                   "--seed", "0"])
        assert res.exit_code == 0, res.output

    def test_optimize_without_a_long_enough_track_is_a_data_error(self, scene_dir):
        # the scene's one pothole track is 10 frames long, so every J would read 0
        _, manifest_path = scene_dir
        res = CliRunner().invoke(main, ["optimize", "--manifest", str(manifest_path),
                                        "--min-track-len", "11"])
        assert res.exit_code == 1, res.output
        assert res.output == "error: no pothole track reaches --min-track-len 11; nothing to optimize\n"

    def test_optimize_smoke(self, scene_dir):
        _, manifest_path = scene_dir
        runner = CliRunner()
        res = runner.invoke(
            main,
            ["optimize", "--manifest", str(manifest_path), "--n-init", "3", "--n-iter", "2"],
        )
        assert res.exit_code == 0, res.output
        assert "lambda=" in res.output and "best_j=" in res.output
        assert res.output.count("eval ") == 5

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("dets_0001.txt", "format_version=1\n"
             "frame=1 class_id=0 x=nan y=109.4 w=30.5 h=20.5 confidence=0.78\n", 2),
            ("dets_0001.txt", "format_version=1\n"
             "frame=1 class_id=0 x=144.6 y=109.4 w=inf h=20.5 confidence=0.78\n", 2),
            ("dets_0001.txt", "format_version=1\n"
             "frame=1 class_id=0 x=1e308 y=109.4 w=1e308 h=20.5 confidence=0.78\n", 2),
            ("motion_0001.txt", "format_version=1\ntransform\n1 0 0\n0 nan 0\n0 0 1\n", 4),
        ],
        ids=["x-nan", "w-inf", "right-overflows", "transform-nan"],
    )
    def test_nonfinite_input_is_a_data_error(self, scene_dir, tmp_path, name, text, line):
        src, _ = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        (tmp_path / name).write_text(text)
        res = CliRunner().invoke(main, ["estimate", "--manifest", str(tmp_path / "manifest.yaml")])
        assert res.exit_code in (1, 2), res.output
        # a clean exit, not an exception caught by the runner
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"error: frame 1: {tmp_path / name}: line {line}:" in res.output

    def test_singular_transform_is_a_data_error(self, scene_dir, tmp_path):
        # the 2x2 block is the identity, but the third row 0 0 0 maps every
        # track centre to infinity
        src, _ = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        (tmp_path / "motion_0001.txt").write_text("format_version=1\ntransform\n1 0 0\n0 1 0\n0 0 0\n")
        res = CliRunner().invoke(main, ["estimate", "--manifest", str(tmp_path / "manifest.yaml")])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert [line for line in res.output.splitlines() if line.startswith("error:")] == [
            "error: frame 1: 3x3 matrix is singular"]

    @pytest.mark.parametrize("box", ["x=100 y=100 w=0 h=20", "x=5000 y=100 w=30 h=20"],
                             ids=["zero-width", "off-image"])
    def test_box_without_pixels_costs_only_that_detection(self, scene_dir, tmp_path, caplog, box):
        src, manifest_path = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        with open(tmp_path / "dets_0002.txt", "a") as f:
            f.write(f"frame=2 class_id=0 {box} confidence=0.9\n")
        runner = CliRunner()
        clean = runner.invoke(main, ["estimate", "--manifest", str(manifest_path)])
        res = runner.invoke(main, ["estimate", "--manifest", str(tmp_path / "manifest.yaml")])
        assert res.exit_code == 0, res.output
        assert res.output == clean.output
        assert "frame 2: box BBox(" in caplog.text

    @pytest.mark.parametrize("box", ["x=0 y=100 w=1e308 h=20", "x=100 y=0 w=30 h=1e308",
                                     "x=-100 y=100 w=321 h=20"],
                             ids=["huge-width", "huge-height", "one-px-wider"])
    def test_box_larger_than_image_is_skipped_before_tracking(self, scene_dir, tmp_path, caplog,
                                                              box):
        # listed first in frame 0, the box would take track id 1 if it were tracked
        src, manifest_path = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        dets = tmp_path / "dets_0000.txt"
        header, rest = dets.read_text().split("\n", 1)
        dets.write_text(f"{header}\nframe=0 class_id=0 {box} confidence=0.9\n{rest}")
        runner = CliRunner()
        clean = runner.invoke(main, ["estimate", "--manifest", str(manifest_path)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["estimate", "--manifest", str(tmp_path / "manifest.yaml")])
        assert res.exit_code == 0, res.output
        assert res.stdout == clean.stdout
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in res.stderr
        assert "frame 0: box BBox(" in caplog.text
        assert "is larger than the 320x240 image, skipping" in caplog.text

    @pytest.mark.parametrize("base, target", [
        ("dets_0001.txt", "dets_0001.txt"),
        ("motion_0001.txt", "motion_0001.txt"),
        ("transform.txt", "motion_0001.txt"),
        ("results.txt", "results.txt"),
    ])
    @seed(14)
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_corrupted_record_file_is_a_clean_exit(self, fuzz_dir, base, target, data):
        """A damaged detection, motion or results file ends the command cleanly,
        with an error in the program's words, not Python's."""
        target = fuzz_dir / target
        original = target.read_bytes()
        target.write_text(data.draw(corrupted((fuzz_dir / base).read_text())))
        if target.name == "results.txt":
            args = ["eval-area", "--results", str(target)]
        else:
            args = ["estimate", "--manifest", str(fuzz_dir / "manifest.yaml")]
        try:
            res = CliRunner().invoke(main, args)
        finally:
            target.write_bytes(original)
        assert_clean_exit(res)

    @pytest.mark.parametrize("target, corrupt", [
        ("manifest.yaml", corrupted_manifest),
        ("depth_0001.pfm", corrupted_pfm),
    ], ids=["manifest", "depth"])
    @seed(14)
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_corrupted_sequence_file_is_a_clean_exit(self, fuzz_dir, target, corrupt, data):
        """A damaged manifest or depth map ends ``estimate`` cleanly, with an
        error in the program's words, not Python's."""
        target = fuzz_dir / target
        original = target.read_bytes()
        target.write_bytes(data.draw(corrupt(original)))
        try:
            res = CliRunner().invoke(main, ["estimate", "--manifest", str(fuzz_dir / "manifest.yaml")])
        finally:
            target.write_bytes(original)
        assert_clean_exit(res)

    @pytest.mark.parametrize("command, option, bad, valid", [
        ("estimate", "--lam", "-1", "0"),
        ("estimate", "--lam", "nan", "0"),
        ("estimate", "--theta", "-0.5", "0"),
        ("estimate", "--theta", "inf", "0"),
        ("estimate", "--seed", "-1", "0"),
        ("optimize", "--seed", "-1", "0"),
        ("optimize", "--n-init", "0", "1"),
        ("optimize", "--n-iter", "-1", "0"),
        ("optimize", "--min-track-len", "1", "2"),
        ("eval-area", "--min-track-len", "1", "2"),
        ("synth", "--seed", "-1", "0"),
        ("eval-det", "--iou", "-1", "1"),
        ("eval-det", "--iou", "nan", "1"),
    ], ids=["estimate-lam", "estimate-lam-nan", "estimate-theta", "estimate-theta-inf",
            "estimate-seed", "optimize-seed", "optimize-n-init", "optimize-n-iter",
            "optimize-min-track-len", "eval-area-min-track-len", "synth-seed", "eval-det-iou",
            "eval-det-iou-nan"])
    def test_out_of_range_option_is_a_usage_error(self, fuzz_dir, tmp_path, command, option,
                                                  bad, valid):
        manifest = str(fuzz_dir / "manifest.yaml")
        # a results file whose only track has one record
        one = tmp_path / "one.txt"
        one.write_text(formats.write_records((fuzz_dir / "results.txt").read_text().splitlines()[1:2]))
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump({
            "intrinsics": {"f_u": 100.0, "f_v": 100.0, "p_u": 20.0, "p_v": 15.0,
                           "width": 40, "height": 30},
            "surface": {"potholes": [{"center": [0.0, 0.0], "a": 0.3, "b": 0.2}]},
        }))
        results = tmp_path / "results.txt"
        base = {
            "estimate": ["estimate", "--manifest", manifest, "--out", str(results)],
            "optimize": ["optimize", "--manifest", manifest, "--n-init", "1", "--n-iter", "0"],
            "eval-area": ["eval-area", "--results", str(one)],
            "synth": ["synth", "--spec", str(spec), "--out", str(tmp_path / "scene")],
            "eval-det": ["eval-det", "--dets", str(fuzz_dir / "dets_0001.txt"),
                         "--gt", str(fuzz_dir / "gt_boxes.txt")],
        }[command]
        runner = CliRunner()
        res = runner.invoke(main, base + [option, bad])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"Invalid value for '{option}'" in res.output
        assert not results.exists()
        res = runner.invoke(main, base + [option, valid])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("case", [
        "manifest-dir", "results-dir", "spec-dir", "manifest-estimate", "manifest-optimize",
        "dets", "motion", "results", "eval-det-dets", "out-dir-missing", "synth-out-file",
        "negative-frames", "nan-noise",
    ])
    def test_bad_input_file_is_a_clean_exit(self, scene_dir, tmp_path, case):
        """A directory given as an input file is a usage error. An undecodable
        input, an unwritable output or an invalid spec ends the command with
        one ``error:`` line that names the file, and the frame where there is one."""
        src, _ = scene_dir
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        manifest, spec, results = (tmp_path / n for n in ("manifest.yaml", "spec.yaml", "results.txt"))
        spec.write_text(yaml.safe_dump({
            "intrinsics": {"f_u": 100.0, "f_v": 100.0, "p_u": 20.0, "p_v": 15.0,
                           "width": 40, "height": 30},
            "frames": -1 if case == "negative-frames" else 1,
            "noise": {"conf_c0": math.nan if case == "nan-noise" else 0.95},
        }))
        dets, motion = tmp_path / "dets_0001.txt", tmp_path / "motion_0001.txt"
        estimate = ["estimate", "--manifest", str(manifest)]
        # the arguments, the file written as undecodable bytes, and what the error names
        args, undecodable, named = {
            "manifest-dir": (["estimate", "--manifest", str(tmp_path)], None, None),
            "results-dir": (["eval-area", "--results", str(tmp_path)], None, None),
            "spec-dir": (["synth", "--spec", str(tmp_path), "--out", str(tmp_path / "o")],
                         None, None),
            "manifest-estimate": (estimate, manifest, f"{manifest}: "),
            "manifest-optimize": (["optimize", "--manifest", str(manifest)], manifest,
                                  f"{manifest}: "),
            "dets": (estimate, dets, f"frame 1: {dets}: "),
            "motion": (estimate, motion, f"frame 1: {motion}: "),
            "results": (["eval-area", "--results", str(results)], results, f"{results}: "),
            "eval-det-dets": (["eval-det", "--dets", str(dets), "--gt", str(tmp_path / "gt_boxes.txt")],
                              dets, f"{dets}: "),
            "out-dir-missing": (estimate + ["--out", str(tmp_path / "missing" / "r.txt")], None,
                                str(tmp_path / "missing" / "r.txt")),
            "synth-out-file": (["synth", "--spec", str(spec), "--out", str(manifest)], None,
                               str(manifest)),
            "negative-frames": (["synth", "--spec", str(spec), "--out", str(tmp_path / "o")], None,
                                f"{spec}: frames must be >= 0"),
            "nan-noise": (["synth", "--spec", str(spec), "--out", str(tmp_path / "o")], None,
                          f"{spec}: conf_c0 must be a finite number, got nan"),
        }[case]
        if undecodable is not None:
            undecodable.write_bytes(b"\xff\xfe format_version=1\n")
        res = CliRunner().invoke(main, args)
        assert isinstance(res.exception, SystemExit), repr(res.exception)
        assert "Traceback" not in res.output
        if named is None:
            assert res.exit_code == 2, res.output
            assert "is a directory" in res.output
            return
        assert res.exit_code == 1, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, res.output
        assert named in errors[0]

    @pytest.mark.parametrize("field, value, message", [
        ("width", 1.0e300, "intrinsics width*height must be at most"),
        ("width", 3_000_000_000, "intrinsics width*height must be at most"),
        ("frames", 1.0e300, "frames must be at most"),
        ("n_correspondences", 10 ** 20, "n_correspondences must be at most"),
        # integers beyond the float range, in an int field and in a float field
        ("width", 10 ** 400, "width must be a finite whole number"),
        ("f_u", 10 ** 400, "f_u must be a finite number"),
    ], ids=["width-1e300", "width-3e9", "frames", "n-correspondences", "width-1e400", "f_u-1e400"])
    def test_oversized_spec_is_a_clean_exit(self, tmp_path, field, value, message):
        """A spec too large to render is refused before anything is allocated."""
        doc = {"intrinsics": {"f_u": 100.0, "f_v": 100.0, "p_u": 20.0, "p_v": 15.0,
                              "width": 40, "height": 30}}
        (doc["intrinsics"] if field in ("width", "f_u") else doc)[field] = value
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(doc))
        res = CliRunner().invoke(main, ["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 1, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {spec}: {message}"), res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_nonfinite_focal_length_is_a_data_error(self, fuzz_dir, tmp_path, value):
        manifest = tmp_path / "manifest.yaml"
        text = (fuzz_dir / "manifest.yaml").read_text()
        manifest.write_text(text.replace("f_u: 300.0", f"f_u: {value}"))
        assert manifest.read_text() != text
        res = CliRunner().invoke(main, ["estimate", "--manifest", str(manifest)])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert f"error: {manifest}: f_u must be a finite number, got {value[1:]}" in res.output

    @pytest.mark.parametrize("old, new, message", [
        ("- frame: 0\n", "- frame: 0.9\n", "frame must be a finite whole number, got 0.9"),
        ("- frame: 0\n", "- frame: true\n", "frame must be a finite whole number, got True"),
        ("fps: 30.0\n", "fps: .nan\n", "fps must be a finite number, got nan"),
    ], ids=["fractional-frame", "bool-frame", "nan-fps"])
    def test_manifest_numbers_are_checked_like_the_scene_spec(self, fuzz_dir, tmp_path,
                                                              old, new, message):
        manifest = tmp_path / "manifest.yaml"
        text = (fuzz_dir / "manifest.yaml").read_text()
        manifest.write_text(text.replace(old, new, 1))
        assert manifest.read_text() != text
        res = CliRunner().invoke(main, ["estimate", "--manifest", str(manifest)])
        assert isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 1, res.output
        assert "Traceback" not in res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {manifest}: "), res.output
        assert message in errors[0]

    def test_missing_manifest_exit_code(self):
        runner = CliRunner()
        res = runner.invoke(main, ["estimate", "--manifest", "/nonexistent.yaml"])
        assert res.exit_code == 2  # usage error from click's path check

    @pytest.mark.parametrize("key, value", [("area_smoothed_m2", "nan"), ("nis", "inf")])
    def test_nonfinite_result_value_is_a_data_error(self, fuzz_dir, tmp_path, key, value):
        results = tmp_path / "results.txt"
        text = (fuzz_dir / "results.txt").read_text()
        results.write_text(re.sub(rf"\b{key}=\S+", f"{key}={value}", text, count=1))
        assert results.read_text() != text
        res = CliRunner().invoke(main, ["eval-area", "--results", str(results)])
        assert isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 1, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: {results}: line 2: {key} must be a finite number, got '{value}'"]

    def test_out_of_range_result_value_is_a_data_error(self, fuzz_dir, tmp_path):
        """A NIS below 0 would print a J below the least J can be."""
        results = tmp_path / "results.txt"
        results.write_text(re.sub(r"\bnis=\S+", "nis=-3", (fuzz_dir / "results.txt").read_text(), count=1))
        res = CliRunner().invoke(main, ["eval-area", "--results", str(results)])
        assert isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 1, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: {results}: line 2: nis -3.0 outside [0, inf]"]

    def test_raw_scores_the_unsmoothed_records(self, fuzz_dir, tmp_path):
        """``--raw`` scores each record as an unsmoothed run writes it: the raw
        area, and a zero NIS whatever the file holds."""
        results = tmp_path / "results.txt"
        results.write_text(re.sub(r"\bnis=\S+", "nis=2.0", (fuzz_dir / "results.txt").read_text()))
        res = CliRunner().invoke(main, ["eval-area", "--results", str(results)])
        assert res.exit_code == 0, res.output
        assert "nis_mean=2.000000" in res.output
        res = CliRunner().invoke(main, ["eval-area", "--results", str(results), "--raw"])
        assert res.exit_code == 0, res.output
        assert "nis_mean=0.000000" in res.output

    def test_overflowing_area_statistics_are_a_data_error(self, fuzz_dir, tmp_path):
        """Finite areas so large that the statistics overflow end ``eval-area`` with
        one error line, not a NaN objective or a floating-point warning."""
        results = tmp_path / "results.txt"
        results.write_text(re.sub(r"\barea_smoothed_m2=\S+", "area_smoothed_m2=1e308",
                                  (fuzz_dir / "results.txt").read_text()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CliRunner().invoke(main, ["eval-area", "--results", str(results)])
        assert isinstance(res.exception, SystemExit), repr(res.exception)
        assert res.exit_code == 1, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: {results}: the area statistics overflow: objective_j=nan"]

    def test_bad_results_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("frame=0 not_a_record\n")
        runner = CliRunner()
        res = runner.invoke(main, ["eval-area", "--results", str(bad)])
        assert res.exit_code == 1
        assert f"error: {bad}: line 1: " in res.output
