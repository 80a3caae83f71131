"""Tracked, depth-based road pothole area estimation.

Per-frame detections plus metric depth maps go in; persistent track ids
with physically-scaled, temporally smoothed area estimates come out,
together with evaluation metrics, a parameter tuner, and a synthetic
ground-truth oracle.
"""

from .geometry import BBox, CameraIntrinsics, DepthMap, Detection, MotionTransform, iou
from .mbtp import AreaEstimate, estimate_area
from .cdkf import CdkfConfig, CdkfState, NoiseMode
from .tracking import Tracker
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CameraIntrinsics",
    "DepthMap",
    "Detection",
    "MotionTransform",
    "iou",
    "AreaEstimate",
    "estimate_area",
    "CdkfConfig",
    "CdkfState",
    "NoiseMode",
    "Tracker",
    "PipelineConfig",
    "run_pipeline",
    "__version__",
]
