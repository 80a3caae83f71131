"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or -rA to see
them on success) and asserts the criterion with its pinned tolerance.
"""

import itertools
import math
import time

import numpy as np
import pytest

from areatrack import formats
from areatrack.bayesopt import SearchSpec, optimize
from areatrack.cdkf import CdkfConfig, CdkfState, NoiseMode, measurement_noise
from areatrack import cdkf
from areatrack.geometry import BBox, CameraIntrinsics, Detection, DepthMap, MotionTransform, as_xywh, iou
from areatrack.mbtp import ELLIPSE_FACTOR, estimate_area
from areatrack.metrics import (
    average_precision,
    evaluate_detections,
    match_flags,
    objective_j,
    precision_recall_f1,
)
from areatrack.pipeline import PipelineConfig, run_pipeline
from areatrack.synth import (
    CameraPose,
    NoiseSpec,
    PotholeSpec,
    SceneSpec,
    Surface,
    analytic_rect_footprint_area,
    render_depth,
    simulate_area_series,
    write_scene,
)
from areatrack.tracking import Tracker, hungarian_solve

INTR = CameraIntrinsics(f_u=300.0, f_v=300.0, p_u=160.0, p_v=120.0, width=320, height=240)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. area estimator accuracy against independent quadrature


def test_criterion_01_area_oracle_accuracy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_flat = 0.0
    worst_curved = 0.0

    # 20 noiseless fronto-parallel scenes against the closed form
    for _ in range(20):
        z0 = float(rng.uniform(3.0, 12.0))
        spec = SceneSpec(intrinsics=INTR, surface=Surface(kind="plane", z0=z0), frames=1)
        depth = render_depth(spec, 0)
        w = int(rng.integers(20, 60))
        h = int(rng.integers(20, 60))
        x = float(rng.integers(0, INTR.width - w - 1))
        y = float(rng.integers(0, INTR.height - h - 1))
        est = estimate_area(BBox(x, y, w, h), depth, INTR)
        closed = (w - 1) * (h - 1) * z0 * z0 / (INTR.f_u * INTR.f_v)
        worst_flat = max(worst_flat, abs(est.area_m2 / ELLIPSE_FACTOR - closed) / closed)

    # 30 tilted/undulating scenes against adaptive quadrature
    for i in range(30):
        if i % 2 == 0:
            surface = Surface(kind="tilted", z0=float(rng.uniform(4.0, 8.0)),
                              pitch_deg=float(rng.uniform(-8.0, 8.0)))
        else:
            surface = Surface(kind="undulating", z0=float(rng.uniform(4.0, 8.0)),
                              amplitude=float(rng.uniform(0.005, 0.025)),
                              wavelength=float(rng.uniform(1.5, 3.0)))
        spec = SceneSpec(intrinsics=INTR, surface=surface, frames=1)
        depth = render_depth(spec, 0)
        w = int(rng.integers(20, 50))
        h = int(rng.integers(20, 50))
        x = float(rng.uniform(40, INTR.width - w - 41))
        y = float(rng.uniform(40, INTR.height - h - 41))
        box = BBox(x, y, w, h)
        est = estimate_area(box, depth, INTR)
        oracle = analytic_rect_footprint_area(spec, box)
        worst_curved = max(worst_curved, abs(est.area_m2 / ELLIPSE_FACTOR - oracle) / oracle)

    elapsed = time.perf_counter() - t0
    ok = worst_flat <= 0.005 and worst_curved <= 0.02 and elapsed < 10.0
    _verdict(
        1, "area oracle accuracy", ok,
        f"flat max rel err {worst_flat:.2e} (<=0.5%), curved {worst_curved:.2e} (<=2%), "
        f"{elapsed:.1f}s (<10s), 50 scenes",
    )


# ---------------------------------------------------------------------------
# 2. depth-squared scale law


def test_criterion_02_depth_scale_law():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(20):
        z = float(rng.uniform(2.0, 20.0))
        w = int(rng.integers(20, 80))
        h = int(rng.integers(20, 80))
        x = float(rng.uniform(0, INTR.width - w - 1))
        y = float(rng.uniform(0, INTR.height - h - 1))
        b = BBox(x, y, w, h)
        d1 = DepthMap(INTR.width, INTR.height, np.full((INTR.height, INTR.width), z))
        d2 = DepthMap(INTR.width, INTR.height, np.full((INTR.height, INTR.width), 2 * z))
        a1 = estimate_area(b, d1, INTR).area_m2
        a2 = estimate_area(b, d2, INTR).area_m2
        worst = max(worst, abs(a2 / a1 - 4.0) / 4.0)
    ok = worst <= 1e-6
    _verdict(2, "depth-squared scale law", ok,
             f"max |ratio-4|/4 = {worst:.2e} over 20 scenes (tol 1e-6)")


# ---------------------------------------------------------------------------
# 3. smoother consistency (NIS calibration)


def test_criterion_03_nis_calibration():
    cfg = CdkfConfig(lam=1.026, theta=0.7179)
    rng = np.random.default_rng(3003)
    truth = 0.3
    state = CdkfState()
    nis_vals = []
    for k in range(10_000):
        c = float(rng.uniform(0.4, 0.95))
        d = float(rng.uniform(3.0, 14.0))
        r = measurement_noise(c, d, cfg)
        z = truth + math.sqrt(r) * float(rng.standard_normal())
        if state.initialized:
            state = cdkf.predict(state)
            state = cdkf.update(state, z, c, d, cfg)
            nis_vals.append(state.last_nis)
        else:
            state = cdkf.update(state, z, c, d, cfg)
        # the modeled process noise is real: truth drifts with variance Q
        truth += math.sqrt(cdkf.Q) * float(rng.standard_normal())
    mean_nis = float(np.mean(nis_vals))
    ok = 0.9 <= mean_nis <= 1.1
    _verdict(3, "NIS calibration", ok,
             f"mean NIS {mean_nis:.4f} over 10k steps (target [0.9, 1.1])")


# ---------------------------------------------------------------------------
# 4. smoothing ablation ordering


def _afd(series):
    return float(np.mean(np.abs(np.diff(series))))


def _run_mode(series, mode):
    cfg = CdkfConfig(lam=1.026, theta=0.7179, mode=mode)
    s = CdkfState()
    out = []
    for z, c, d in series:
        if s.initialized:
            s = cdkf.predict(s)
        s = cdkf.update(s, z, c, d, cfg)
        out.append(s.A)
    return out


def test_criterion_04_smoothing_ablation_ordering():
    beats_raw = 0
    beats_both = 0
    n_seeds = 30
    for seed in range(n_seeds):
        # long enough for each filter to pass its initial averaging
        # transient and reach its steady-state gain
        series = simulate_area_series(0.25, 150, seed=seed)
        raw = [z for z, _, _ in series]
        afd_raw = _afd(raw)
        afd_comb = _afd(_run_mode(series, NoiseMode.COMBINED))
        afd_conf = _afd(_run_mode(series, NoiseMode.CONFIDENCE_ONLY))
        afd_dist = _afd(_run_mode(series, NoiseMode.DISTANCE_ONLY))
        if afd_comb < afd_raw:
            beats_raw += 1
        if afd_comb < afd_conf and afd_comb < afd_dist:
            beats_both += 1
    ok = beats_raw >= 29 and beats_both > n_seeds // 2
    _verdict(4, "smoothing ablation ordering", ok,
             f"combined < raw AFD in {beats_raw}/30 (need >=29); "
             f"< both single modes in {beats_both}/30 (need majority)")


# ---------------------------------------------------------------------------
# 5. assignment optimality


def _brute_force_cost(cost):
    n, m = cost.shape
    if n <= m:
        return min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    return min(
        sum(cost[p[j], j] for j in range(m))
        for p in itertools.permutations(range(n), m)
    )


def test_criterion_05_assignment_optimality():
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(0.0, 10.0, (n, m))
        pairs = hungarian_solve(cost)
        got = sum(cost[i, j] for i, j in pairs)
        worst = max(worst, abs(got - _brute_force_cost(cost)))
    ok = worst < 1e-9
    _verdict(5, "assignment optimality", ok,
             f"max |cost - brute force| = {worst:.2e} over 1000 matrices up to 7x7")


# ---------------------------------------------------------------------------
# 6. track identity stability


def _linear_sequence(rng, frames=25):
    x0, y0 = rng.uniform(50, 200, 2)
    vx, vy = rng.uniform(-2.5, 2.5, 2)
    w, h = rng.uniform(30, 50, 2)
    return [
        Detection(BBox(x0 + vx * k, y0 + vy * k, w, h), 0.9, 0, k) for k in range(frames)
    ]


def test_criterion_06_track_identity():
    switches = 0
    jump_failures = 0
    for seed in range(10):
        rng = np.random.default_rng(6000 + seed)
        seq = _linear_sequence(rng)
        # consecutive boxes overlap far above the association gates
        assert all(iou(a.bbox, b.bbox) >= 0.7 for a, b in zip(seq, seq[1:]))
        tr = Tracker()
        ids = set()
        for k, d in enumerate(seq):
            out = tr.step(as_xywh([d.bbox]), np.array([d.confidence]), frame=k)
            ids.update(tid for tid, _ in out)
        if ids != {1}:
            switches += 1

    for seed in range(10):
        rng = np.random.default_rng(6100 + seed)
        seq = _linear_sequence(rng, frames=12)
        jump_at = 6
        dx, dy = 40.0, 0.0
        tr = Tracker()
        ids = set()
        for k, d in enumerate(seq):
            if k >= jump_at:
                d = Detection(
                    BBox(d.bbox.x + dx, d.bbox.y + dy, d.bbox.w, d.bbox.h),
                    d.confidence, d.class_id, d.frame,
                )
            motion = MotionTransform.translation(dx, dy) if k == jump_at else None
            out = tr.step(as_xywh([d.bbox]), np.array([d.confidence]), motion=motion, frame=k)
            ids.update(tid for tid, _ in out)
        if ids != {1}:
            jump_failures += 1

    ok = switches == 0 and jump_failures == 0
    _verdict(6, "track identity", ok,
             f"linear motion: {switches}/10 runs with ID switches; "
             f"40px compensated jump: {jump_failures}/10 failures (need 0)")


# ---------------------------------------------------------------------------
# 7. detection metrics oracle


def _oracle_pr_ap(dets, gts, thresh):
    """Straightforward reference implementation, written independently:
    greedy best-IoU matching in confidence order, then a literal scan of the
    101-point interpolated precision envelope."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    used = set()
    flags = []
    for i in order:
        cand = [
            (iou(dets[i].bbox, g), j)
            for j, g in enumerate(gts)
            if j not in used and iou(dets[i].bbox, g) >= thresh
        ]
        if cand:
            _, j = max(cand)
            used.add(j)
            flags.append(1)
        else:
            flags.append(0)
    tp = sum(flags)
    fp = len(dets) - tp
    fn = len(gts) - tp
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    ap = 0.0
    if gts:
        running_tp = 0
        precs, recs = [], []
        for rank, fl in enumerate(flags, start=1):
            running_tp += fl
            precs.append(running_tp / rank)
            recs.append(running_tp / len(gts))
        for level in range(101):
            want = level / 100.0
            best = 0.0
            for pr, rc in zip(precs, recs):
                if rc >= want - 1e-12 and pr > best:
                    best = pr
            ap += best / 101.0
    return p, r, f1, ap


def test_criterion_07_detection_metrics_oracle():
    rng = np.random.default_rng(7007)
    worst = 0.0
    for _ in range(100):
        n_gt = int(rng.integers(0, 6))
        n_det = int(rng.integers(0, 8))
        gts = [
            BBox(float(rng.uniform(0, 80)), float(rng.uniform(0, 80)), 20, 20)
            for _ in range(n_gt)
        ]
        dets = [
            Detection(
                BBox(float(rng.uniform(0, 90)), float(rng.uniform(0, 90)), 20, 20),
                float(rng.uniform(0.1, 0.99)), 0, 0,
            )
            for _ in range(n_det)
        ]
        rep = evaluate_detections(dets, gts, iou_thresh=0.5)
        p, r, f1, ap = _oracle_pr_ap(dets, gts, 0.5)
        ap_got = average_precision(match_flags(dets, gts, 0.5), len(gts))
        worst = max(
            worst,
            abs(rep.precision - p), abs(rep.recall - r), abs(rep.f1 - f1),
            abs(ap_got - ap),
        )

    # reference operating point: P=0.679, R=0.718 give F1=0.698
    p, r = 0.679, 0.718
    f1 = 2 * p * r / (p + r)
    triple_ok = round(f1, 3) == 0.698
    # and the counting formula agrees with itself on equivalent integers
    pc, rc, f1c = precision_recall_f1(679, 321, 0)
    triple_ok = triple_ok and pc == pytest.approx(0.679) and rc == 1.0 and f1c > 0

    ok = worst <= 0.01 and triple_ok
    _verdict(7, "detection metrics oracle", ok,
             f"max |metric - oracle| = {worst:.2e} over 100 instances (tol 0.01); "
             f"F1(0.679, 0.718) = {f1:.3f} (expect 0.698)")


# ---------------------------------------------------------------------------
# 8. optimizer convergence


def criterion_08_searches():
    """The 100 seeded searches of criterion 08, each as (its target, its ``OptResult``)."""
    master = np.random.default_rng(8008)
    for seed in range(100):
        cx, cy = master.uniform(0.2, 1.8, 2)

        def f(p, cx=cx, cy=cy):
            return (p[0] - cx) ** 2 + (p[1] - cy) ** 2

        yield (cx, cy), optimize(f, SearchSpec(n_init=5, n_iter=30, seed=seed))


def test_criterion_08_optimizer_convergence():
    t0 = time.perf_counter()
    errors = [max(abs(res.best_point[0] - cx), abs(res.best_point[1] - cy))
              for (cx, cy), res in criterion_08_searches()]
    elapsed = time.perf_counter() - t0
    hits = sum(e <= 0.05 for e in errors)
    ok = hits >= 95 and elapsed < 60.0
    _verdict(8, "optimizer convergence", ok,
             f"{hits}/100 seeds within L-inf 0.05 (need >=95), error median "
             f"{np.median(errors):.4f} max {max(errors):.4f}; {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 9. area estimator latency


def test_criterion_09_estimator_latency():
    rng = np.random.default_rng(9009)
    width, height, size = 1920, 1080, 200
    intr = CameraIntrinsics(f_u=1000.0, f_v=1000.0, p_u=960.0, p_v=540.0,
                            width=width, height=height)
    depth = DepthMap(
        width, height,
        (5.0 + 0.1 * rng.standard_normal((height, width))).astype(np.float32),
    )
    boxes = [
        BBox(float(rng.uniform(0, width - size - 1)),
             float(rng.uniform(0, height - size - 1)), size, size)
        for _ in range(5)
    ]
    for b in boxes:  # warm-up
        estimate_area(b, depth, intr)
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        for b in boxes:
            estimate_area(b, depth, intr)
        times.append((time.perf_counter() - t0) * 1e3)
    mean_ms = float(np.mean(times))
    ok = mean_ms <= 6.2
    _verdict(9, "estimator latency", ok,
             f"mean {mean_ms:.2f} ms/frame for 5x200px boxes at 1920x1080 (<=6.2 ms)")


# ---------------------------------------------------------------------------
# 10. objective arithmetic


def test_criterion_10_objective_arithmetic():
    j = objective_j(0.038, 0.119, 0.020, 1.530)
    ok = j == pytest.approx(2.049, abs=1e-12)
    _verdict(10, "objective arithmetic", ok, f"J(0.038, 0.119, 0.020, 1.530) = {j:.6f}")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism


CRITERION_11_SCENE = SceneSpec(
    intrinsics=INTR,
    surface=Surface(
        kind="plane", z0=6.0,
        potholes=(PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.015),),
    ),
    frames=8,
    camera_path=tuple(CameraPose(position=(0.0, 0.0, 0.15 * k)) for k in range(8)),
    noise=NoiseSpec(box_jitter_px=0.6, depth_rel_std=0.004, conf_noise_std=0.02),
    n_correspondences=60,
    seed=11,
)


def test_criterion_11_determinism(tmp_path):
    spec = CRITERION_11_SCENE
    # identical renders...
    m1 = write_scene(spec, tmp_path / "a")
    m2 = write_scene(spec, tmp_path / "b")
    same_render = all(
        (tmp_path / "a" / f.name).read_bytes() == (tmp_path / "b" / f.name).read_bytes()
        for f in (tmp_path / "a").iterdir()
        if f.name != "manifest.yaml"  # differs only by the directory it points into
    )
    # ...and identical pipeline outputs, twice over the same input
    config = PipelineConfig(seed=0)
    recs1, _ = run_pipeline(formats.SequenceManifest.load(m1), config)
    recs2, _ = run_pipeline(formats.SequenceManifest.load(m1), config)
    same_run = formats.write_results(recs1).encode() == formats.write_results(recs2).encode()
    cross = formats.write_results(run_pipeline(formats.SequenceManifest.load(m2), config)[0])
    same_cross = cross == formats.write_results(recs1)
    ok = same_render and same_run and same_cross
    _verdict(11, "determinism", ok,
             f"render bytes identical: {same_render}; rerun identical: {same_run}; "
             f"re-rendered sequence identical: {same_cross}")
