import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areatrack.errors import AreatrackError, EmptySeries, TooShort, ZeroMean
from areatrack.geometry import BBox, Detection, iou
from areatrack.metrics import (
    AP_IOU_THRESHOLDS,
    AreaConsistencyReport,
    DetectionEvalReport,
    TrackAreaStats,
    area_afd,
    area_consistency_report,
    area_cv,
    area_mae,
    average_precision,
    evaluate_detections,
    evaluate_detections_per_frame,
    match_flags,
    objective_j,
    precision_recall_f1,
)


def det(x, y, w=10, h=10, conf=0.9):
    return Detection(BBox(x, y, w, h), conf, 0, 0)


def counts(dets, gts, iou_thresh):
    r = evaluate_detections(dets, gts, iou_thresh)
    return r.tp, r.fp, r.fn


class TestMatching:
    def test_perfect_match(self):
        gts = [BBox(0, 0, 10, 10), BBox(50, 50, 10, 10)]
        dets = [det(0, 0), det(50, 50)]
        assert counts(dets, gts, 0.7) == (2, 0, 0)

    def test_duplicate_detection_is_fp(self):
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(0, 0, conf=0.9), det(1, 0, conf=0.8)]
        tp, fp, fn = counts(dets, gts, 0.5)
        assert (tp, fp, fn) == (1, 1, 0)

    def test_confidence_order_decides_claim(self):
        gts = [BBox(0, 0, 10, 10)]
        # lower-IoU detection with higher confidence claims the gt first
        dets = [det(2, 0, conf=0.95), det(0, 0, conf=0.5)]
        flags = match_flags(dets, gts, 0.5)
        assert flags == [True, False]

    def test_equal_iou_claims_first_gt(self):
        # the first detection overlaps both gts by 1/3 and claims the first,
        # so the second detection, exactly on gt 0, finds it taken
        gts = [BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)]
        dets = [det(5, 0, conf=0.9), det(0, 0, conf=0.5)]
        assert match_flags(dets, gts, 0.3) == [True, False]

    def test_nan_iou_is_skipped(self):
        # x + w overflows to inf: with no vertical overlap the IoU is inf * 0
        # = NaN, which never wins; the second gt still matches
        d = Detection(BBox(1e308, 0, 1e308, 1e-300), 0.9, 0, 0)
        gts = [BBox(1e308, 5, 1e308, 1e-300), BBox(1e308, 0, 1e308, 1e-300)]
        assert match_flags([d], gts, 0.5) == [True]

    def test_threshold_gate(self):
        gts = [BBox(0, 0, 10, 10)]
        dets = [det(4, 0)]  # IoU = 6/14 ~ 0.43
        assert counts(dets, gts, 0.5) == (0, 1, 1)
        assert counts(dets, gts, 0.4) == (1, 0, 0)

    @given(
        st.lists(st.tuples(st.floats(0, 80), st.floats(0, 80), st.floats(0.1, 0.99)), max_size=8),
        st.lists(st.tuples(st.floats(0, 80), st.floats(0, 80)), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_are_consistent(self, ds, gs):
        dets = [det(x, y, conf=c) for x, y, c in ds]
        gts = [BBox(x, y, 10, 10) for x, y in gs]
        tp, fp, fn = counts(dets, gts, 0.5)
        assert tp + fp == len(dets)
        assert tp + fn == len(gts)
        assert tp >= 0 and fp >= 0 and fn >= 0


class TestPrecisionRecall:
    def test_zero_everything(self):
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_reference_values(self):
        # precision 0.679 and recall 0.718 give F1 of 0.698
        p, r = 0.679, 0.718
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.698, abs=5e-4)
        # and the counting path reproduces the same algebra
        tp, fp, fn = 679, 321, 0
        pc, rc, f1c = precision_recall_f1(tp, fp, fn)
        assert pc == pytest.approx(0.679)
        assert rc == 1.0

    def test_f1_harmonic_mean(self):
        p, r, f1 = precision_recall_f1(3, 1, 3)
        assert p == 0.75 and r == 0.5
        assert f1 == pytest.approx(0.6)


def trapezoid_ap_oracle(flags, n_gt):
    """Envelope of the PR curve integrated on a dense recall grid."""
    tp = np.cumsum(np.asarray(flags, float))
    prec = tp / np.arange(1, len(tp) + 1)
    rec = tp / n_gt
    total = 0.0
    for r in np.linspace(0, 1, 101):
        vals = prec[rec >= r - 1e-12]
        total += (vals.max() if len(vals) else 0.0) / 101
    return total


class TestAveragePrecision:
    def test_all_tp(self):
        assert average_precision([True], 1) == pytest.approx(1.0)

    def test_fp_then_tp(self):
        # precision at the single recall point is 0.5; the 101-point grid
        # has 51 points at recall <= 0, counted at envelope precision 0.5
        got = average_precision([False, True], 1)
        assert got == pytest.approx(0.5, abs=0.01)

    def test_tp_then_fp(self):
        assert average_precision([True, False], 1) == pytest.approx(1.0)

    def test_no_gt(self):
        assert average_precision([True, False], 0) == 0.0

    @given(st.lists(st.booleans(), min_size=1, max_size=20), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_oracle(self, flags, n_gt):
        if sum(flags) > n_gt:
            flags = flags[: n_gt]
        got = average_precision(flags, n_gt)
        assert got == pytest.approx(trapezoid_ap_oracle(flags, n_gt), abs=1e-9)
        assert 0.0 <= got <= 1.0 + 1e-9


def reference_flags(dets, gts, thresh):
    """Greedy matching one threshold at a time with the scalar ``iou``: in
    descending confidence, each detection claims the first untaken ground
    truth with the largest positive IoU if that IoU clears ``thresh``."""
    taken, flags = set(), []
    for d in sorted(dets, key=lambda d: -d.confidence):
        best, j = 0.0, None
        for k, g in enumerate(gts):
            v = iou(d.bbox, g)
            if k not in taken and v > best:
                best, j = v, k
        hit = j is not None and best >= thresh
        taken |= {j} if hit else set()
        flags.append(hit)
    return flags


def reference_pooled_report(dets_by_frame, gts_by_frame, iou_thresh):
    """Per-frame counts at ``iou_thresh``, and each AP threshold's flags
    pooled over frames and ranked by descending confidence."""
    tp = n_det = n_gt = 0
    ranked = []
    for f in sorted(set(dets_by_frame) | set(gts_by_frame)):
        dets, gts = dets_by_frame.get(f, []), gts_by_frame.get(f, [])
        tp += sum(reference_flags(dets, gts, iou_thresh))
        n_det, n_gt = n_det + len(dets), n_gt + len(gts)
        per_thresh = [reference_flags(dets, gts, t) for t in AP_IOU_THRESHOLDS]
        confs = sorted((d.confidence for d in dets), reverse=True)
        ranked += [(c, [fl[r] for fl in per_thresh]) for r, c in enumerate(confs)]
    ranked.sort(key=lambda pair: -pair[0])
    aps = [average_precision([fl[k] for _, fl in ranked], n_gt) for k in range(len(AP_IOU_THRESHOLDS))]
    p, r, f1 = precision_recall_f1(tp, n_det - tp, n_gt - tp)
    return DetectionEvalReport(tp, n_det - tp, n_gt - tp, p, r, f1, aps[0], sum(aps) / len(aps),
                               iou_thresh)


class TestEvaluateDetections:
    def test_report_fields(self):
        gts = [BBox(0, 0, 10, 10), BBox(40, 40, 10, 10)]
        dets = [det(0, 0, conf=0.9), det(40, 40, conf=0.8), det(100, 100, conf=0.7)]
        rep = evaluate_detections(dets, gts, iou_thresh=0.7)
        assert (rep.tp, rep.fp, rep.fn) == (2, 1, 0)
        assert rep.recall == 1.0
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.ap50 >= rep.ap50_95 - 1e-12

    @given(st.lists(st.tuples(
        st.lists(st.tuples(st.floats(0, 60), st.floats(0, 60), st.sampled_from([0.3, 0.5, 0.8])),
                 max_size=6),
        st.lists(st.tuples(st.floats(0, 60), st.floats(0, 60)), max_size=5)), max_size=5),
        st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=150, deadline=None)
    def test_pooled_frames_match_per_threshold_reference(self, frames, iou_thresh):
        dets = {f: [Detection(BBox(x, y, 10, 10), c, 0, f) for x, y, c in ds]
                for f, (ds, _) in enumerate(frames)}
        gts = {f: [BBox(x, y, 10, 10) for x, y in gs] for f, (_, gs) in enumerate(frames)}
        want = reference_pooled_report(dets, gts, iou_thresh)
        assert evaluate_detections_per_frame(dets, gts, iou_thresh) == want

    def test_ap_thresholds_grid(self):
        assert AP_IOU_THRESHOLDS[0] == 0.5
        assert AP_IOU_THRESHOLDS[-1] == pytest.approx(0.95)
        assert len(AP_IOU_THRESHOLDS) == 10
        steps = np.diff(AP_IOU_THRESHOLDS)
        assert np.allclose(steps, 0.05)


class TestAreaStats:
    def test_mae_hand_value(self):
        # series (1, 2, 3): mean 2, deviations (1, 0, 1) -> MAE 2/3
        assert area_mae([1.0, 2.0, 3.0]) == pytest.approx(2 / 3)

    def test_cv_hand_value(self):
        # population std of (1,2,3) is sqrt(2/3); mean 2
        assert area_cv([1.0, 2.0, 3.0]) == pytest.approx(math.sqrt(2 / 3) / 2)

    def test_afd_hand_value(self):
        # |2-1| + |4-2| -> mean 1.5
        assert area_afd([1.0, 2.0, 4.0]) == pytest.approx(1.5)

    def test_constant_series(self):
        s = [0.5] * 10
        assert area_mae(s) == 0.0
        assert area_cv(s) == 0.0
        assert area_afd(s) == 0.0

    def test_empty_and_short(self):
        with pytest.raises(EmptySeries):
            area_mae([])
        with pytest.raises(EmptySeries):
            area_cv([])
        with pytest.raises(TooShort):
            area_afd([1.0])

    def test_zero_mean_cv(self):
        with pytest.raises(ZeroMean):
            area_cv([1.0, -1.0])

    def test_scale_behavior(self):
        s = [0.2, 0.25, 0.22, 0.28]
        assert area_mae([3 * v for v in s]) == pytest.approx(3 * area_mae(s))
        assert area_cv([3 * v for v in s]) == pytest.approx(area_cv(s))  # scale-free
        assert area_afd([3 * v for v in s]) == pytest.approx(3 * area_afd(s))

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 6), n=st.integers(2, 300))
    def test_rows_of_a_block_match_one_series(self, seed, rows, n):
        block = np.random.default_rng(seed).uniform(0.01, 2.0, (rows, n))
        for stat in (area_mae, area_cv, area_afd):
            got = stat(block)
            assert got.shape == (rows,)
            assert [v.hex() for v in got.tolist()] == [float(stat(r)).hex() for r in block.tolist()]

    def test_block_zero_mean_cv_names_the_row(self):
        with pytest.raises(ZeroMean, match="mean -0.5"):
            area_cv([[1.0, 2.0], [-1.0, 0.0], [0.0, 0.0]])


class TestObjective:
    def test_reference_row(self):
        assert objective_j(0.038, 0.119, 0.020, 1.530) == pytest.approx(2.049)

    def test_weights(self):
        assert objective_j(1, 0, 0, 0) == 10.0
        assert objective_j(0, 1, 0, 0) == 1.0
        assert objective_j(0, 0, 1, 0) == 1.0
        assert objective_j(0, 0, 0, 1) == 1.0


# The per-track report body that the length-block report replaced, with the
# one-series statistics it called, kept as the oracle.


def reference_consistency_report(areas_by_track, nis_by_track=None, min_track_len=5):
    per_track = []
    for tid in sorted(areas_by_track):
        series = list(areas_by_track[tid])
        if len(series) < min_track_len:
            continue
        nis_series = list(nis_by_track.get(tid, [])) if nis_by_track else []
        nis_mean = float(np.mean(nis_series)) if nis_series else None
        a = np.asarray(series, dtype=np.float64)
        mean = float(np.mean(series))
        cv = float(np.sqrt(np.mean((a - a.mean()) ** 2)) / a.mean()) if mean > 0 else 0.0
        if len(series) < 2:
            raise TooShort("AFD needs at least two elements")
        per_track.append(
            TrackAreaStats(
                track_id=tid,
                n=len(series),
                mean_area=mean,
                mae=float(np.mean(np.abs(a - a.mean()))),
                cv=cv,
                afd=float(np.mean(np.abs(np.diff(a)))),
                nis_mean=nis_mean,
            )
        )
    if not per_track:
        return AreaConsistencyReport(0.0, 0.0, 0.0, 0.0, 0, min_track_len, [])
    nis_vals = [t.nis_mean for t in per_track if t.nis_mean is not None]
    return AreaConsistencyReport(
        mae=float(np.mean([t.mae for t in per_track])),
        cv=float(np.mean([t.cv for t in per_track])),
        afd=float(np.mean([t.afd for t in per_track])),
        nis_mean=float(np.mean(nis_vals)) if nis_vals else 0.0,
        track_count=len(per_track),
        min_track_len=min_track_len,
        per_track=per_track,
    )


def outcome(report, *args) -> str:
    """The repr of a report, or the package error raised instead."""
    try:
        with np.errstate(all="ignore"):
            return repr(report(*args))
    except AreatrackError as e:
        return f"{type(e).__name__}: {e}"


@st.composite
def track_series(draw):
    """Areas of 0-60 tracks of 1-150 values each, which crosses numpy's 8-
    and 128-element pairwise-sum blocks, and NIS series of 0-150 values for
    most of them. Some values are NaN, infinite, zero or negative, and some
    tracks are all zero or have a negative mean."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tracks, max_len = draw(st.integers(0, 60)), draw(st.integers(1, 150))
    lengths = rng.integers(1, max_len + 1, n_tracks).tolist()
    special = draw(st.sampled_from([0.0, 0.02, 0.2]))

    def series(n):
        a = rng.uniform(0.01, 2.0, n) - rng.choice([0.0, 0.0, 0.0, 3.0])
        if rng.random() < 0.05:
            a[:] = 0.0
        mask = rng.random(n) < special
        a[mask] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -1.0, 1e300], mask.sum())
        return a.tolist()

    tids = rng.permutation(10 * len(lengths) + 1)[: len(lengths)].tolist()
    areas = {t: series(n) for t, n in zip(tids, lengths)}
    nis = {t: series(int(rng.integers(0, 151))) for t in tids if rng.random() < 0.8}
    return areas, nis


class TestConsistencyReport:
    def test_short_tracks_excluded(self):
        rep = area_consistency_report({1: [0.2, 0.3], 2: [0.2] * 6}, min_track_len=5)
        assert rep.track_count == 1
        assert rep.per_track[0].track_id == 2

    def test_unweighted_track_average(self):
        areas = {1: [1.0, 2.0, 3.0, 2.0, 2.0], 2: [5.0] * 50}
        rep = area_consistency_report(areas, min_track_len=5)
        m1 = area_mae(areas[1])
        assert rep.mae == pytest.approx((m1 + 0.0) / 2)

    def test_nis_flows_through(self):
        rep = area_consistency_report(
            {1: [0.2] * 6},
            nis_by_track={1: [0.5, 1.5, 1.0]},
            min_track_len=5,
        )
        assert rep.nis_mean == pytest.approx(1.0)
        assert rep.objective == pytest.approx(1.0)

    def test_empty(self):
        rep = area_consistency_report({}, min_track_len=5)
        assert rep.track_count == 0
        assert rep.objective == 0.0

    def test_one_record_track_at_min_len_one_is_too_short(self):
        with pytest.raises(TooShort, match="AFD needs at least two elements"):
            area_consistency_report({1: [0.2] * 5, 2: [0.3]}, min_track_len=1)

    def test_nonpositive_or_nan_mean_has_zero_cv(self):
        rep = area_consistency_report(
            {1: [0.0, 0.0], 2: [-1.0, -2.0], 3: [np.nan, 1.0], 4: [1.0, 3.0]}, min_track_len=2)
        assert [t.cv for t in rep.per_track] == [0.0, 0.0, 0.0, 0.5]

    @settings(max_examples=150, deadline=None)
    @given(data=track_series(), min_track_len=st.sampled_from([1, 2, 5, 12]))
    def test_matches_per_track_reference(self, data, min_track_len):
        areas, nis = data
        assert outcome(area_consistency_report, areas, nis, min_track_len) == outcome(
            reference_consistency_report, areas, nis, min_track_len)

