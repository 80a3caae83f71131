import math

import numpy as np
import pytest

from areatrack.errors import NoValidDepth
from areatrack.geometry import BBox, CameraIntrinsics, DepthMap
from areatrack.projection import center_distance

INTR = CameraIntrinsics(f_u=1000.0, f_v=1000.0, p_u=960.0, p_v=540.0, width=1920, height=1080)


class TestCenterDistance:
    def test_on_axis(self):
        d = DepthMap(1920, 1080, np.full((1080, 1920), 5.0, np.float32))
        b = BBox(INTR.p_u - 20.0, INTR.p_v - 20.0, 40, 40)
        assert center_distance(b, d, INTR) == pytest.approx(5.0)

    def test_off_axis_norm(self):
        d = DepthMap(1920, 1080, np.full((1080, 1920), 10.0, np.float32))
        b = BBox(INTR.p_u + 490.0, INTR.p_v - 10.0, 20, 20)
        assert center_distance(b, d, INTR) == pytest.approx(math.sqrt(125), rel=1e-6)

    def test_median_fallback(self):
        vals = np.full((1080, 1920), 8.0, np.float32)
        vals[530:550, 950:970] = np.nan  # hole over the center
        d = DepthMap(1920, 1080, vals)
        b = BBox(910.0, 490.0, 100, 100)
        assert center_distance(b, d, INTR) == pytest.approx(8.0, rel=1e-3)

    def test_all_invalid_raises(self):
        vals = np.full((1080, 1920), np.nan, np.float32)
        d = DepthMap(1920, 1080, vals)
        with pytest.raises(NoValidDepth):
            center_distance(BBox(100, 100, 50, 50), d, INTR)

    def test_at_least_center_depth(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(1.0, 9.0, (1080, 1920)).astype(np.float32)
        d = DepthMap(1920, 1080, vals)
        for _ in range(20):
            u = rng.uniform(0, 1900)
            v = rng.uniform(0, 1060)
            b = BBox(u, v, 20, 20)
            z = d.values[int(round(min(b.cy, 1079))), int(round(min(b.cx, 1919)))]
            assert center_distance(b, d, INTR) >= z - 1e-9
