"""File formats: PFM depth maps, line-delimited detection and result
records, and the YAML sequence manifest."""

from __future__ import annotations

import io
import math
import mmap
import operator
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union, get_type_hints

import numpy as np
import yaml

from .errors import (
    BadMagic,
    DimensionMismatch,
    FormatError,
    MalformedLine,
    ManifestError,
    TruncatedPayload,
)
from .geometry import BBox, CameraIntrinsics, DepthMap, Detection

FORMAT_VERSION = 1


def read_text(path: Union[str, Path]) -> str:
    """A UTF-8 file's text; an undecodable file is a ``FormatError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {e}") from None


def parse_file(path: Union[str, Path], parse):
    """``parse`` of a text file; a malformed line is a ``FormatError`` naming the file."""
    try:
        return parse(read_text(path))
    except MalformedLine as e:
        raise FormatError(f"{path}: {e}") from None


def read_yaml(path: Union[str, Path], error: type[FormatError]):
    """The document in a YAML file, parsed by libyaml when PyYAML has it. The stream is
    named after the file, so a syntax error's context lines name it, not "<unicode
    string>"; the error is raised as ``error``, its message prefixed with the path."""
    stream = io.StringIO(read_text(path))
    stream.name = str(path)
    try:
        return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as e:
        raise error(f"{path}: {e}") from None


def number(name: str, t: type, v):
    """``v``, which must be a finite number, and a whole one if ``t`` is int. An int
    field gets an int; a float field gets ``v`` as given, so ``f_u: 300`` is written back as 300."""
    # an exact comparison: an int beyond the float range fails it, where float(v) would raise
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
            abs(v) <= sys.float_info.max and (t is not int or float(v).is_integer())):
        raise ValueError(f"{name} must be a finite{' whole' if t is int else ''} number, got {v!r}")
    return int(v) if t is int else v


def build(cls, doc, **convert):
    """A ``cls`` from a YAML mapping of its field names. Each value goes through its
    ``convert`` entry, or through ``number`` if its field is an int or a float."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a mapping, got {doc!r}")
    casts = {k: partial(number, k, t) for k, t in get_type_hints(cls).items() if t in (int, float)}
    casts |= convert
    return cls(**{k: casts[k](v) if k in casts else v for k, v in doc.items()})


# ---------------------------------------------------------------------------
# PFM depth maps (grayscale "Pf" only; rows stored bottom-to-top)


def parse_pfm(data: bytes | mmap.mmap) -> DepthMap:
    """Decode a grayscale PFM file; bytes after the payload are ignored.

    ``data`` is the whole file as bytes or as a read-only ``mmap`` of it.
    A map stored in the machine's byte order (little-endian, negative
    scale, on x86 and ARM) is not copied: its values are a read-only,
    row-flipped view of ``data``, which the map keeps alive, so a mapping
    stays open until the map is released. Any other map is converted to
    native float32. The scale must be finite and non-zero; only its sign
    is used.
    """
    nl1 = data.find(b"\n")
    nl2 = data.find(b"\n", nl1 + 1)
    nl3 = data.find(b"\n", nl2 + 1)
    if min(nl1, nl2, nl3) < 0:
        raise TruncatedPayload("incomplete PFM header")
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
    if not math.isfinite(scale) or scale == 0.0:
        raise DimensionMismatch(f"scale must be finite and non-zero, got {scale!r}")
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
# line-record files: one record per line under a format_version header


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each data line of a record
    file. Blank lines, ``#`` comments and a header line whose only token
    is ``format_version=<v>`` are skipped; a ``v`` other than
    ``FORMAT_VERSION`` is an error."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("format_version=") and len(line.split()) == 1:
            if line != f"format_version={FORMAT_VERSION}":
                raise MalformedLine(line_no, f"unsupported {line}, expected {FORMAT_VERSION}")
            continue
        yield line_no, line


def _records(text: str, keys: tuple[str, ...], make) -> list:
    """``make(*values)`` of each record line, its values in ``keys`` order (a repeated
    key keeps its last value). A line's first fault is its ``MalformedLine``: a token
    that is not key=value, then the first of ``keys`` it lacks, then ``make``'s error."""
    get = operator.itemgetter(*keys)  # KeyError names the first missing key; 2+ keys give a tuple
    out = []
    for line_no, line in _data_lines(text):
        fields = {}
        for token in line.split():
            key, eq, value = token.partition("=")
            if not eq:
                raise MalformedLine(line_no, f"token {token!r} is not key=value")
            fields[key] = value
        try:
            values = get(fields)
        except KeyError as e:
            raise MalformedLine(line_no, f"missing field {e.args[0]!r}") from None
        try:
            out.append(make(*values))
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
    return out


def _box(x: str, y: str, w: str, h: str) -> BBox:
    box = BBox(float(x), float(y), float(w), float(h))
    # BBox itself allows such boxes; the estimator cannot index them
    if not (math.isfinite(box.right) and math.isfinite(box.bottom)):
        raise ValueError(f"box far edge overflows: right={box.right} bottom={box.bottom}")
    return box


def write_records(lines: Iterable[str]) -> str:
    """A record file: the format_version header, then one record per line."""
    return "\n".join([f"format_version={FORMAT_VERSION}", *lines]) + "\n"


# ---------------------------------------------------------------------------
# detections and per-frame results: key=value records


def _detection(frame, class_id, x, y, w, h, confidence) -> Detection:
    return Detection(frame=int(frame), class_id=int(class_id), bbox=_box(x, y, w, h),
                     confidence=float(confidence))


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Line-delimited detections grouped by frame, input order preserved."""
    out: dict[int, list[Detection]] = {}
    for det in _records(text, ("frame", "class_id", "x", "y", "w", "h", "confidence"), _detection):
        out.setdefault(det.frame, []).append(det)
    return out


def write_detections(dets_by_frame: dict[int, list[Detection]]) -> str:
    return write_records(
        f"frame={d.frame} class_id={d.class_id} "
        f"x={d.bbox.x:.6f} y={d.bbox.y:.6f} w={d.bbox.w:.6f} h={d.bbox.h:.6f} "
        f"confidence={d.confidence:.6f}"
        for frame in sorted(dets_by_frame)
        for d in dets_by_frame[frame]
    )


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

        The copy fills a bare instance's ``__dict__`` instead of calling
        ``__init__``, whose one frozen ``__setattr__`` per field made it
        twice as slow; the tuner copies every record once per candidate.
        Skipping ``__init__`` skips no check, as the record has no
        ``__post_init__``.
        """
        new = object.__new__(FrameResultRecord)
        fields = new.__dict__
        fields.update(self.__dict__)
        fields["area_smoothed_m2"] = area_m2
        fields["nis"] = nis
        return new

    def to_line(self) -> str:
        b = self.bbox
        return (
            f"frame={self.frame} track_id={self.track_id} class_id={self.class_id} "
            f"x={b.x:.6f} y={b.y:.6f} w={b.w:.6f} h={b.h:.6f} "
            f"confidence={self.confidence:.6f} distance_m={self.distance_m:.6f} "
            f"area_raw_m2={self.area_raw_m2:.8f} area_smoothed_m2={self.area_smoothed_m2:.8f} "
            f"nis={self.nis:.8f} valid_patch_fraction={self.valid_patch_fraction:.6f}"
        )


_RESULT_KEYS = (
    "frame", "track_id", "class_id", "x", "y", "w", "h", "confidence",
    "distance_m", "area_raw_m2", "area_smoothed_m2", "nis", "valid_patch_fraction",
)


def _result(frame, track_id, class_id, x, y, w, h, *rest) -> FrameResultRecord:
    """A result record; ``rest`` holds the float fields from ``confidence`` on."""
    return FrameResultRecord(int(frame), int(track_id), int(class_id), _box(x, y, w, h),
                             *map(float, rest))


def parse_results(text: str) -> list[FrameResultRecord]:
    return _records(text, _RESULT_KEYS, _result)


def write_results(records: list[FrameResultRecord]) -> str:
    return write_records(r.to_line() for r in records)


# ---------------------------------------------------------------------------
# motion files: bare numbers, either a 3x3 transform or raw correspondences


def _motion_numbers(line_no: int, line: str, transform: bool) -> list[float]:
    """One number line of a motion file, checked on its own: its numbers, or
    the error of its first fault (non-numeric, then count, then non-finite)."""
    try:
        nums = [float(p) for p in line.split()]
    except ValueError:
        raise MalformedLine(line_no, f"non-numeric motion line {line!r}") from None
    if transform:
        if len(nums) != 3:
            raise MalformedLine(line_no, "transform rows need 3 numbers")
        if not all(map(math.isfinite, nums)):
            raise MalformedLine(line_no, f"non-finite transform row {line!r}")
    elif len(nums) != 4:
        raise MalformedLine(line_no, "correspondence lines need 4 numbers")
    return nums


def parse_motion_file(text: str):
    """Returns ('transform', 3x3 array) or ('correspondences', (n, 2, 2)
    float64 array of ``[[x0, y0], [x1, y1]]`` rows); a file with no data
    lines gives ``("correspondences", array of shape (0, 2, 2))``.

    One pass checks each line's structure and collects the number tokens,
    which one ``np.array`` call converts under ``float()``'s rules. Only on a
    fault are the lines before it converted one by one, so that the first
    bad line is named.
    """
    lines = []  # (line_no, line) of the number lines before the first structural fault
    tokens = []
    transform_line = fault = None
    try:
        for line_no, line in _data_lines(text):
            parts = line.split()
            if parts[0] == "transform":
                if len(parts) > 1:
                    raise MalformedLine(line_no, f"tokens after the transform keyword in {line!r}")
                if transform_line is not None:
                    raise MalformedLine(line_no, "second transform keyword")
                if lines:
                    raise MalformedLine(line_no, "transform keyword after correspondence lines")
                transform_line = line_no
                continue
            if len(parts) != (4 if transform_line is None else 3):
                _motion_numbers(line_no, line, transform_line is not None)  # raises
            lines.append((line_no, line))
            tokens += parts
    except MalformedLine as e:
        fault = e
    transform = transform_line is not None
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or (transform and not np.isfinite(values).all()):
        values = np.array([_motion_numbers(n, line, transform) for n, line in lines])
    if fault is not None:
        raise fault
    if transform:
        if len(lines) != 3:
            raise MalformedLine(transform_line, f"transform needs 3 rows, got {len(lines)}")
        return "transform", values.reshape(3, 3)
    return "correspondences", values.reshape(-1, 2, 2)


def write_correspondences(pairs: np.ndarray) -> str:
    rows = pairs.tolist()  # Python floats: numpy scalars format about three times slower
    return write_records(f"{x0:.6f} {y0:.6f} {x1:.6f} {y1:.6f}" for (x0, y0), (x1, y1) in rows)


# ---------------------------------------------------------------------------
# sequence manifest

_MANIFEST_KEYS = ("format_version", "dataset", "fps", "intrinsics", "frames")
_FRAME_KEYS = ("frame", "depth", "detections", "motion")


def _check_keys(path: Path, doc: dict, allowed: tuple[str, ...], what: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ManifestError(f"{path}: unknown {what} key {key!r}, allowed: {', '.join(allowed)}")


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
        doc = read_yaml(path, ManifestError)
        if not isinstance(doc, dict):
            raise ManifestError(f"{path}: manifest must be a mapping")
        _check_keys(path, doc, _MANIFEST_KEYS, "manifest")
        try:
            version = number("format_version", int, doc.get("format_version", FORMAT_VERSION))
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported format_version {version}, expected {FORMAT_VERSION}")
            intr = build(CameraIntrinsics, doc["intrinsics"])
            raw_frames = doc["frames"]
            fps = number("fps", float, doc.get("fps", 30.0))
            dataset = "" if doc.get("dataset") is None else doc["dataset"]
            if not isinstance(dataset, str):
                raise ValueError(f"dataset must be a string, got {dataset!r}")
        except (KeyError, TypeError, ValueError) as e:
            missing = "missing key " if isinstance(e, KeyError) else ""  # a KeyError's text is the key
            raise ManifestError(f"{path}: {missing}{e}") from None
        if not isinstance(raw_frames, list):
            raise ManifestError(f"{path}: frames must be a list, got {raw_frames!r}")
        base = path.parent
        frames = []
        last = None
        for item in raw_frames:
            if isinstance(item, dict):
                _check_keys(path, item, _FRAME_KEYS, "frame entry")
            try:
                entry = FrameEntry(
                    frame=number("frame", int, item["frame"]),
                    depth_path=base / item["depth"],
                    detections_path=base / item["detections"],
                    motion_path=None if item.get("motion") is None else base / item["motion"],
                )
            except (KeyError, TypeError, ValueError) as e:
                missing = "missing key " if isinstance(e, KeyError) else ""
                raise ManifestError(f"{path}: bad frame entry {item!r}: {missing}{e}") from None
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
            fps=fps,
            dataset=dataset,
        )

    def dump(self, path: Union[str, Path]) -> None:
        path = Path(path)
        base = path.parent
        doc = {
            "format_version": FORMAT_VERSION,
            "dataset": self.dataset,
            "fps": self.fps,
            "intrinsics": asdict(self.intrinsics),
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
