"""File formats: PFM depth maps, line-delimited detection and result
records, and the YAML sequence manifest."""

from __future__ import annotations

import io
import math
import mmap
import operator
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache, partial
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


@cache
def _casts(cls) -> dict:
    """``number`` for each int or float field of ``cls``, keyed by field name."""
    return {k: partial(number, k, t) for k, t in get_type_hints(cls).items() if t in (int, float)}


def build(cls, doc, **convert):
    """A ``cls`` from a YAML mapping of its field names. Each value goes through its
    ``convert`` entry, or through ``number`` if its field is an int or a float. An
    unknown key, then a missing one without a default, is a ``TypeError`` naming it,
    as ``cls(**doc)`` would raise, but in the manifest's words."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a mapping, got {doc!r}")
    names = [f.name for f in fields(cls)]
    for key in doc:
        if key not in names:
            raise TypeError(f"unknown {cls.__name__} key {key!r}, allowed: {', '.join(names)}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise TypeError(f"missing key {f.name!r}")
    casts = _casts(cls) | convert
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
    dim_line, scale_line = data[nl1 + 1 : nl2], data[nl2 + 1 : nl3]
    try:
        width, height = map(int, dim_line.split())  # two tokens, or unpacking fails
    except ValueError:
        raise DimensionMismatch(f"bad dimension line {dim_line!r}") from None
    try:
        scale = float(scale_line)
    except ValueError:
        raise DimensionMismatch(f"bad scale line {scale_line!r}") from None
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


def _value(key: str, t: type, token: str):
    """``token`` as a ``t`` under ``number``'s rule; the error names ``key`` and ``token``."""
    try:
        return number(key, t, t(token))
    except ValueError:
        return number(key, t, token)  # raises: a string is not a number


def _records(text: str, table, make) -> list:
    """``make(*values)`` of each record line, its values converted by ``table``'s types in
    key order (a repeated key keeps its last value). A line's first fault is its error: a
    token not key=value, then the first missing key, the first bad value, ``make``'s error."""
    keys, types, _ = zip(*table)
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
            tokens = get(fields)
        except KeyError as e:
            raise MalformedLine(line_no, f"missing field {e.args[0]!r}") from None
        try:  # fsum is finite only if every value is finite and every int fits a float
            values = [t(v) for t, v in zip(types, tokens)]
            ok = math.isfinite(math.fsum(values))
        except (ValueError, OverflowError):
            ok = False
        try:  # a line that fails is converted key by key, to name its first bad key
            out.append(make(*(values if ok else map(_value, keys, types, tokens))))
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
    return out


def _box(x: float, y: float, w: float, h: float) -> BBox:
    box = BBox(x, y, w, h)
    # BBox itself allows such boxes; the estimator cannot index them
    if not (math.isfinite(box.right) and math.isfinite(box.bottom)):
        raise ValueError(f"box far edge overflows: right={box.right} bottom={box.bottom}")
    return box


def write_records(lines: Iterable[str]) -> str:
    """A record file: the format_version header, then one record per line."""
    return "\n".join([f"format_version={FORMAT_VERSION}", *lines]) + "\n"


# ---------------------------------------------------------------------------
# detections and per-frame results: key=value records, each kind one table of
# (key, type, write format) rows in the order the writer puts them

_DETECTION = (("frame", int, "d"), ("class_id", int, "d"), ("x", float, ".6f"), ("y", float, ".6f"),
              ("w", float, ".6f"), ("h", float, ".6f"), ("confidence", float, ".6f"))
_RESULT = _DETECTION[:1] + (("track_id", int, "d"),) + _DETECTION[1:] + (
    ("distance_m", float, ".6f"), ("area_raw_m2", float, ".8f"), ("area_smoothed_m2", float, ".8f"),
    ("nis", float, ".8f"), ("valid_patch_fraction", float, ".6f"))


def _write(table, records: Iterable) -> str:
    """A record file with one ``table`` line per record; a box key reads the record's ``bbox``."""
    box = {f.name for f in fields(BBox)}
    line = " ".join(f"{key}=%{fmt}" for key, _, fmt in table)
    get = operator.attrgetter(*(f"bbox.{key}" if key in box else key for key, _, _ in table))
    return write_records(line % get(r) for r in records)


def _detection(frame, class_id, x, y, w, h, confidence) -> Detection:
    return Detection(_box(x, y, w, h), confidence, class_id, frame)


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Line-delimited detections grouped by frame, input order preserved."""
    out: dict[int, list[Detection]] = {}
    for det in _records(text, _DETECTION, _detection):
        out.setdefault(det.frame, []).append(det)
    return out


def write_detections(dets_by_frame: dict[int, list[Detection]]) -> str:
    return _write(_DETECTION, (d for frame in sorted(dets_by_frame) for d in dets_by_frame[frame]))


_new, _setattr = object.__new__, object.__setattr__  # looked up once, not per record copy


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

        The copy installs a copy of this record's ``__dict__`` in a bare
        instance instead of calling ``__init__``, whose one frozen
        ``__setattr__`` per field made it about three times as slow; the
        tuner copies every record once per candidate. Skipping ``__init__``
        skips no check, as the record has no ``__post_init__``.
        """
        fields = self.__dict__.copy()
        fields["area_smoothed_m2"] = area_m2
        fields["nis"] = nis
        new = _new(FrameResultRecord)
        _setattr(new, "__dict__", fields)
        return new


def _result(frame, track_id, class_id, x, y, w, h, confidence, *measured) -> FrameResultRecord:
    """A result record: a detection's checks, then each measurement >= 0, the fraction <= 1."""
    det = _detection(frame, class_id, x, y, w, h, confidence)
    for (key, _, _), v, top in zip(_RESULT[-5:], measured, (math.inf,) * 4 + (1.0,)):
        if not 0.0 <= v <= top:
            raise ValueError(f"{key} {v} outside [0, {top:g}]")
    return FrameResultRecord(frame, track_id, class_id, det.bbox, confidence, *measured)


def parse_results(text: str) -> list[FrameResultRecord]:
    return _records(text, _RESULT, _result)


def write_results(records: list[FrameResultRecord]) -> str:
    return _write(_RESULT, records)


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

@dataclass(frozen=True)
class FrameEntry:
    frame: int
    depth: Path
    detections: Path
    motion: Optional[Path] = None


def _frames(base: Path, items) -> list[FrameEntry]:
    """The ``frames`` list of a manifest in ``base``, each entry after the one before;
    an entry's error names its 1-based position."""
    if not isinstance(items, list):
        raise TypeError(f"frames must be a list, got {items!r}")

    def path(key: str, v) -> Path:
        if not isinstance(v, str):
            raise ValueError(f"{key} must be a path string, got {v!r}")
        return base / v

    paths = dict(depth=partial(path, "depth"), detections=partial(path, "detections"),
                 motion=lambda v: None if v is None else path("motion", v))
    frames = []
    for n, item in enumerate(items, start=1):
        try:
            entry = build(FrameEntry, item, **paths)
            if frames and entry.frame <= frames[-1].frame:
                raise ValueError(f"frame {entry.frame} does not follow frame {frames[-1].frame}")
        except (TypeError, ValueError) as e:
            raise ValueError(f"frame entry {n}: {e}") from None
        frames.append(entry)
    return frames


@dataclass
class SequenceManifest:
    intrinsics: CameraIntrinsics
    frames: list[FrameEntry]
    fps: float = 30.0
    dataset: str = ""
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {self.format_version}, expected {FORMAT_VERSION}")
        if not isinstance(self.dataset, str):
            raise ValueError(f"dataset must be a string, got {self.dataset!r}")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SequenceManifest":
        """The manifest at ``path``. Every key and value fault is found before a
        referenced file is looked for."""
        path = Path(path)
        try:
            manifest = build(cls, read_yaml(path, ManifestError),
                             intrinsics=partial(build, CameraIntrinsics),
                             frames=partial(_frames, path.parent),
                             dataset=lambda v: "" if v is None else v)
        except (TypeError, ValueError) as e:
            raise ManifestError(f"{path}: {e}") from None
        for entry in manifest.frames:
            for p in (entry.depth, entry.detections, entry.motion):
                if p is not None and not p.exists():
                    raise ManifestError(f"{path}: referenced file missing: {p}")
        return manifest

    def dump(self, path: Union[str, Path]) -> None:
        """Write this manifest as YAML, its paths relative to ``path``'s directory."""
        path = Path(path)
        doc = asdict(self, dict_factory=lambda items: {
            k: str(v.relative_to(path.parent)) if isinstance(v, Path) else v for k, v in items})
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
