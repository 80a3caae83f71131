"""File formats: PFM depth maps, line-delimited detection and result
records, and the YAML sequence manifest."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
import yaml

from .errors import (
    BadMagic,
    DimensionMismatch,
    MalformedLine,
    ManifestError,
    TruncatedPayload,
)
from .geometry import BBox, CameraIntrinsics, DepthMap, Detection

FORMAT_VERSION = 1

# ---------------------------------------------------------------------------
# PFM depth maps (grayscale "Pf" only; rows stored bottom-to-top)


def parse_pfm(data: bytes) -> DepthMap:
    """Decode a grayscale PFM file; bytes after the payload are ignored.

    A map stored in the machine's byte order (little-endian, negative
    scale, on x86 and ARM) is not copied: its values are a read-only,
    row-flipped view of ``data``, which the map keeps alive. Any other map
    is converted to native float32.
    """
    try:
        nl1 = data.index(b"\n")
        nl2 = data.index(b"\n", nl1 + 1)
        nl3 = data.index(b"\n", nl2 + 1)
    except ValueError:
        raise TruncatedPayload("incomplete PFM header") from None
    magic = data[:nl1].strip()
    if magic != b"Pf":
        raise BadMagic(f"expected grayscale 'Pf', got {magic!r}")
    dims = data[nl1 + 1 : nl2].split()
    if len(dims) != 2:
        raise DimensionMismatch(f"bad dimension line {data[nl1 + 1: nl2]!r}")
    try:
        width, height = int(dims[0]), int(dims[1])
        scale = float(data[nl2 + 1 : nl3])
    except ValueError as e:
        raise DimensionMismatch(str(e)) from None
    if width <= 0 or height <= 0:
        raise DimensionMismatch(f"non-positive dimensions {width}x{height}")
    n = width * height
    payload_len = len(data) - (nl3 + 1)
    if payload_len < 4 * n:
        raise TruncatedPayload(f"expected {4 * n} payload bytes, got {payload_len}")
    endian = "<" if scale < 0 else ">"
    values = np.frombuffer(data, dtype=np.dtype(endian + "f4"), count=n, offset=nl3 + 1)
    grid = values.reshape(height, width)[::-1]  # bottom-to-top on disk
    return DepthMap(width, height, grid)


def write_pfm(d: DepthMap) -> bytes:
    header = f"Pf\n{d.width} {d.height}\n-1.0\n".encode("ascii")
    payload = np.ascontiguousarray(d.values[::-1], dtype="<f4").tobytes()
    return header + payload


# ---------------------------------------------------------------------------
# key=value record lines


def _parse_kv_line(line: str, line_no: int) -> dict[str, str]:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise MalformedLine(line_no, f"token {token!r} is not key=value")
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def _require(fields: dict[str, str], keys: list[str], line_no: int) -> None:
    for k in keys:
        if k not in fields:
            raise MalformedLine(line_no, f"missing field {k!r}")


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Line-delimited detections grouped by frame, input order preserved."""
    out: dict[int, list[Detection]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _parse_kv_line(line, line_no)
        if "format_version" in fields and len(fields) == 1:
            continue
        _require(fields, ["frame", "class_id", "x", "y", "w", "h", "confidence"], line_no)
        try:
            frame = int(fields["frame"])
            class_id = int(fields["class_id"])
            box = BBox(
                float(fields["x"]), float(fields["y"]),
                float(fields["w"]), float(fields["h"]),
            )
            # BBox itself allows such boxes; the estimator cannot index them
            if not (math.isfinite(box.right) and math.isfinite(box.bottom)):
                raise ValueError(f"box far edge overflows: right={box.right} bottom={box.bottom}")
            conf = float(fields["confidence"])
            det = Detection(box, conf, class_id, frame)
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
        out.setdefault(frame, []).append(det)
    return out


def write_detections(dets_by_frame: dict[int, list[Detection]]) -> str:
    lines = [f"format_version={FORMAT_VERSION}"]
    for frame in sorted(dets_by_frame):
        for d in dets_by_frame[frame]:
            lines.append(
                f"frame={d.frame} class_id={d.class_id} "
                f"x={d.bbox.x:.6f} y={d.bbox.y:.6f} w={d.bbox.w:.6f} h={d.bbox.h:.6f} "
                f"confidence={d.confidence:.6f}"
            )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FrameResultRecord:
    frame: int
    track_id: int
    class_id: int
    bbox: BBox
    confidence: float
    distance_m: float
    area_raw_m2: float
    area_smoothed_m2: float
    nis: float
    valid_patch_fraction: float

    def smoothed(self, area_m2: float, nis: float) -> "FrameResultRecord":
        """This record with its smoothed area and NIS replaced.

        ``dataclasses.replace`` does the same, but its scan of the fields
        on every call made smoothing half again as slow, and the tuner
        smooths every record once per candidate.
        """
        return FrameResultRecord(
            self.frame, self.track_id, self.class_id, self.bbox, self.confidence,
            self.distance_m, self.area_raw_m2, area_m2, nis, self.valid_patch_fraction,
        )

    def to_line(self) -> str:
        b = self.bbox
        return (
            f"frame={self.frame} track_id={self.track_id} class_id={self.class_id} "
            f"x={b.x:.6f} y={b.y:.6f} w={b.w:.6f} h={b.h:.6f} "
            f"confidence={self.confidence:.6f} distance_m={self.distance_m:.6f} "
            f"area_raw_m2={self.area_raw_m2:.8f} area_smoothed_m2={self.area_smoothed_m2:.8f} "
            f"nis={self.nis:.8f} valid_patch_fraction={self.valid_patch_fraction:.6f}"
        )


_RESULT_KEYS = [
    "frame", "track_id", "class_id", "x", "y", "w", "h", "confidence",
    "distance_m", "area_raw_m2", "area_smoothed_m2", "nis", "valid_patch_fraction",
]


def parse_results(text: str) -> list[FrameResultRecord]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _parse_kv_line(line, line_no)
        if "format_version" in fields and len(fields) == 1:
            continue
        _require(fields, _RESULT_KEYS, line_no)
        try:
            out.append(
                FrameResultRecord(
                    frame=int(fields["frame"]),
                    track_id=int(fields["track_id"]),
                    class_id=int(fields["class_id"]),
                    bbox=BBox(
                        float(fields["x"]), float(fields["y"]),
                        float(fields["w"]), float(fields["h"]),
                    ),
                    confidence=float(fields["confidence"]),
                    distance_m=float(fields["distance_m"]),
                    area_raw_m2=float(fields["area_raw_m2"]),
                    area_smoothed_m2=float(fields["area_smoothed_m2"]),
                    nis=float(fields["nis"]),
                    valid_patch_fraction=float(fields["valid_patch_fraction"]),
                )
            )
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
    return out


def write_results(records: list[FrameResultRecord]) -> str:
    lines = [f"format_version={FORMAT_VERSION}"]
    lines.extend(r.to_line() for r in records)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# motion files: either a 3x3 transform or raw correspondences


def parse_motion_file(text: str):
    """Returns ('transform', 3x3 array) or ('correspondences', list of pairs)."""
    rows = []
    pairs = []
    kind = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("format_version"):
            continue
        parts = line.split()
        if parts[0] == "transform":
            kind = "transform"
            continue
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise MalformedLine(line_no, f"non-numeric motion line {line!r}") from None
        if kind == "transform":
            if len(nums) != 3:
                raise MalformedLine(line_no, "transform rows need 3 numbers")
            if not all(map(math.isfinite, nums)):
                raise MalformedLine(line_no, f"non-finite transform row {line!r}")
            rows.append(nums)
        else:
            if len(nums) != 4:
                raise MalformedLine(line_no, "correspondence lines need 4 numbers")
            pairs.append(((nums[0], nums[1]), (nums[2], nums[3])))
    if kind == "transform":
        if len(rows) != 3:
            raise MalformedLine(0, f"transform needs 3 rows, got {len(rows)}")
        return "transform", np.array(rows)
    return "correspondences", pairs


def write_correspondences(pairs) -> str:
    lines = [f"format_version={FORMAT_VERSION}"]
    for (x0, y0), (x1, y1) in pairs:
        lines.append(f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sequence manifest


@dataclass(frozen=True)
class FrameEntry:
    frame: int
    depth_path: Path
    detections_path: Path
    motion_path: Optional[Path] = None


@dataclass
class SequenceManifest:
    intrinsics: CameraIntrinsics
    frames: list[FrameEntry]
    fps: float = 30.0
    dataset: str = ""

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SequenceManifest":
        path = Path(path)
        try:
            # libyaml's parser when PyYAML was built with it; same document
            loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
            doc = yaml.load(path.read_text(), Loader=loader)
        except yaml.YAMLError as e:
            raise ManifestError(f"{path}: {e}") from None
        if not isinstance(doc, dict):
            raise ManifestError(f"{path}: manifest must be a mapping")
        try:
            intr = CameraIntrinsics(**doc["intrinsics"])
            raw_frames = doc["frames"]
        except (KeyError, TypeError, ValueError) as e:
            raise ManifestError(f"{path}: {e}") from None
        base = path.parent
        frames = []
        last = None
        for item in raw_frames:
            try:
                entry = FrameEntry(
                    frame=int(item["frame"]),
                    depth_path=base / item["depth"],
                    detections_path=base / item["detections"],
                    motion_path=(base / item["motion"]) if item.get("motion") else None,
                )
            except (KeyError, TypeError, ValueError) as e:
                raise ManifestError(f"{path}: bad frame entry {item!r}: {e}") from None
            if last is not None and entry.frame <= last:
                raise ManifestError(f"{path}: frame indices must strictly increase")
            last = entry.frame
            for p in (entry.depth_path, entry.detections_path, entry.motion_path):
                if p is not None and not p.exists():
                    raise ManifestError(f"{path}: referenced file missing: {p}")
            frames.append(entry)
        return cls(
            intrinsics=intr,
            frames=frames,
            fps=float(doc.get("fps", 30.0)),
            dataset=str(doc.get("dataset", "")),
        )

    def dump(self, path: Union[str, Path]) -> None:
        path = Path(path)
        base = path.parent
        doc = {
            "format_version": FORMAT_VERSION,
            "dataset": self.dataset,
            "fps": self.fps,
            "intrinsics": {
                "f_u": self.intrinsics.f_u,
                "f_v": self.intrinsics.f_v,
                "p_u": self.intrinsics.p_u,
                "p_v": self.intrinsics.p_v,
                "width": self.intrinsics.width,
                "height": self.intrinsics.height,
            },
            "frames": [
                {
                    "frame": f.frame,
                    "depth": str(f.depth_path.relative_to(base)),
                    "detections": str(f.detections_path.relative_to(base)),
                    **({"motion": str(f.motion_path.relative_to(base))} if f.motion_path else {}),
                }
                for f in self.frames
            ],
        }
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
