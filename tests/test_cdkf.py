import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from areatrack import cdkf
from areatrack.cdkf import CdkfConfig, CdkfState, NoiseMode, measurement_noise, predict, update
from areatrack.errors import Uninitialized, ZeroConfidence


class TestMeasurementNoise:
    def test_combined_hand_value(self):
        cfg = CdkfConfig(lam=1.026, theta=0.7179)
        # lam/c + theta*max(d, D0) with c=0.9, d=4 (below trusted distance)
        assert measurement_noise(0.9, 4.0, cfg) == pytest.approx(1.026 / 0.9 + 0.7179 * 5.0)
        assert measurement_noise(0.9, 4.0, cfg) == pytest.approx(4.7295)

    def test_confidence_only(self):
        cfg = CdkfConfig(lam=2.0, mode=NoiseMode.CONFIDENCE_ONLY)
        assert measurement_noise(0.5, 100.0, cfg) == 4.0

    def test_distance_only(self):
        cfg = CdkfConfig(theta=0.5, mode=NoiseMode.DISTANCE_ONLY)
        assert measurement_noise(0.01, 8.0, cfg) == 4.0
        assert measurement_noise(0.01, 2.0, cfg) == 2.5  # floored at D0 = 5 m

    def test_zero_confidence_rejected(self):
        with pytest.raises(ZeroConfidence):
            measurement_noise(0.0, 5.0, CdkfConfig())

    def test_arrays_match_scalars(self):
        c, d = [0.9, 0.05, 0.5], [4.0, 30.0, float("nan")]
        for mode in NoiseMode:
            cfg = CdkfConfig(lam=1.026, theta=0.7179, mode=mode)
            got = measurement_noise(np.array(c), np.array(d), cfg).tolist()
            assert repr(got) == repr([float(measurement_noise(*cd, cfg)) for cd in zip(c, d)])

    def test_first_nonpositive_confidence_named(self):
        with pytest.raises(ZeroConfidence, match=r"^confidence must be > 0, got -0\.5$"):
            measurement_noise(np.array([0.9, -0.5, 0.0]), np.full(3, 5.0), CdkfConfig())

    @pytest.mark.parametrize("lam, theta", [
        (-1.0, 1.0), (1.0, -0.5), (float("nan"), 1.0), (1.0, float("nan")),
        (float("inf"), 1.0), (1.0, float("inf")),
    ])
    def test_bad_weights_rejected(self, lam, theta):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            CdkfConfig(lam=lam, theta=theta)

    @given(st.floats(0.01, 1.0), st.floats(0.0, 50.0))
    def test_monotone_in_inputs(self, c, d):
        cfg = CdkfConfig(lam=1.0, theta=0.5)
        r = measurement_noise(c, d, cfg)
        assert r >= measurement_noise(min(1.0, c + 0.1), d, cfg) - 1e-12
        assert r <= measurement_noise(c, d + 1.0, cfg) + 1e-12


class TestFilterSteps:
    def test_first_measurement_initializes(self):
        cfg = CdkfConfig(lam=1.0, theta=1.0, mode=NoiseMode.CONFIDENCE_ONLY)
        s = update(CdkfState(), z=0.2, c=0.5, d=5.0, cfg=cfg)
        assert s.A == 0.2
        assert s.P == 2.0  # R = lam/c
        assert s.last_nis == 0.0
        assert s.initialized

    def test_predict_before_init_raises(self):
        with pytest.raises(Uninitialized):
            predict(CdkfState())

    def test_predict_inflates_variance_only(self):
        s = CdkfState(A=0.3, P=0.1, updates=1)
        s2 = predict(s)  # Q = 1e-3
        assert s2.A == 0.3
        assert s2.P == pytest.approx(0.101)

    def test_update_hand_example(self):
        # prior A=1, P=1; measurement z=2 with R=1:
        # K = 0.5, A = 1.5, P = 0.5, NIS = 1/(1+1) = 0.5
        cfg = CdkfConfig(lam=1.0, mode=NoiseMode.CONFIDENCE_ONLY)
        s = CdkfState(A=1.0, P=1.0, updates=1)
        s2 = update(s, z=2.0, c=1.0, d=0.0, cfg=cfg)
        assert s2.A == pytest.approx(1.5)
        assert s2.P == pytest.approx(0.5)
        assert s2.last_nis == pytest.approx(0.5)
        assert s2.updates == 2

    def test_variance_contracts_on_update(self):
        cfg = CdkfConfig()
        s = update(CdkfState(), 0.5, 0.9, 6.0, cfg)
        for z in (0.52, 0.48, 0.51):
            prior = predict(s)
            s = update(prior, z, 0.9, 6.0, cfg)
            assert s.P < prior.P

    @given(
        st.floats(0.05, 1.0),
        st.floats(0.0, 30.0),
        st.floats(0.01, 2.0),
        st.floats(0.01, 2.0),
    )
    def test_posterior_between_prior_and_measurement(self, c, d, a_prior, z):
        cfg = CdkfConfig(lam=0.8, theta=0.3)
        s = CdkfState(A=a_prior, P=0.5, updates=3)
        s2 = update(s, z, c, d, cfg)
        lo, hi = min(a_prior, z), max(a_prior, z)
        assert lo - 1e-12 <= s2.A <= hi + 1e-12

    def test_large_r_trusts_prior(self):
        cfg = CdkfConfig(lam=100.0, mode=NoiseMode.CONFIDENCE_ONLY)
        s = CdkfState(A=1.0, P=0.01, updates=5)
        s2 = update(s, z=5.0, c=0.5, d=0.0, cfg=cfg)
        assert abs(s2.A - 1.0) < 0.01 * abs(5.0 - 1.0)


class TestSmoothing:
    def test_noise_suppression(self, monkeypatch):
        # noisy measurements of a constant truth: the filtered series must
        # fluctuate far less than the raw one
        rng = np.random.default_rng(11)
        truth = 0.25
        monkeypatch.setattr(cdkf, "Q", 1e-5)
        cfg = CdkfConfig(lam=1.0, theta=0.7)
        raw, smooth = [], []
        s = CdkfState()
        for _ in range(200):
            z = truth + rng.normal(0, 0.05)
            raw.append(z)
            s = update(predict(s), z, 0.8, 8.0, cfg) if s.initialized else update(
                s, z, 0.8, 8.0, cfg
            )
            smooth.append(s.A)
        raw_fluct = np.mean(np.abs(np.diff(raw)))
        smooth_fluct = np.mean(np.abs(np.diff(smooth)))
        assert smooth_fluct < 0.2 * raw_fluct
        assert smooth[-1] == pytest.approx(truth, abs=0.02)

    def test_steady_state_gain_balance(self, monkeypatch):
        # with constant R the filter approaches the steady-state variance of
        # the scalar constant-model Riccati equation
        monkeypatch.setattr(cdkf, "Q", 0.01)
        cfg = CdkfConfig(lam=1.0, mode=NoiseMode.CONFIDENCE_ONLY)
        r = 1.0
        s = update(CdkfState(), 0.0, 1.0, 0.0, cfg)
        for _ in range(500):
            s = update(predict(s), 0.0, 1.0, 0.0, cfg)
        q = cdkf.Q
        p_star = 0.5 * (-q + np.sqrt(q * q + 4 * q * r))  # posterior fixed point
        assert s.P == pytest.approx(p_star, rel=1e-6)


def chain_reference(z, c, d, track_ids, cfg):
    """The scalar ``predict``/``update`` chain of each track, in input order."""
    states: dict = {}
    areas, nis = [], []
    for zi, ci, di, t in zip(z, c, d, track_ids):
        s = states.get(t)
        s = update(CdkfState() if s is None else predict(s), zi, ci, di, cfg)
        states[t] = s
        areas.append(s.A)
        nis.append(s.last_nis)
    return areas, nis


@st.composite
def measurements(draw):
    """Interleaved, unsorted and repeated track ids; integer or float areas;
    distances that may be NaN or infinite."""
    n = draw(st.integers(0, 60))
    ids = draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n))
    area = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e3))
    z = draw(st.lists(area, min_size=n, max_size=n))
    c = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    distance = st.one_of(st.floats(0.0, 50.0), st.sampled_from([math.nan, math.inf]))
    d = draw(st.lists(distance, min_size=n, max_size=n))
    return z, c, d, ids


class TestFilterTracks:
    @settings(max_examples=200, deadline=None)
    @given(data=measurements(), lam=st.sampled_from([0.0, 1e-6, 1.0, 1e300]),
           theta=st.sampled_from([0.0, 1e-6, 0.3, 1e300]), mode=st.sampled_from(NoiseMode))
    def test_matches_scalar_chain(self, data, lam, theta, mode):
        cfg = CdkfConfig(lam=lam, theta=theta, mode=mode)
        with np.errstate(all="ignore"):
            z, c, d, ids = data
            got = cdkf.filter_tracks(z, c, d, cdkf.track_rows(ids), cfg)
            want = chain_reference(*data, cfg)
        for got_seq, want_seq in zip(got, want):
            assert all(type(v) is float for v in got_seq)
            assert [v.hex() for v in got_seq] == [float(v).hex() for v in want_seq]

    def test_empty(self):
        assert cdkf.filter_tracks([], [], [], cdkf.track_rows([]), CdkfConfig()) == ([], [])

    def test_first_bad_confidence_named_before_any_step(self):
        with pytest.raises(ZeroConfidence, match=r"^confidence must be > 0, got -1\.0$"):
            cdkf.filter_tracks([0.1, 0.2, 0.3], [0.9, -1.0, 0.0], [5.0] * 3, cdkf.track_rows([2, 1, 2]),
                               CdkfConfig())
