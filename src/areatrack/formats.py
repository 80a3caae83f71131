"""File formats: PFM depth maps, line-delimited detection and result
records, and the YAML sequence manifest."""

from __future__ import annotations

import io
import math
import mmap
import operator
import re
import sys
from collections import namedtuple
from collections.abc import Sequence
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


def _records(text: str, table, check) -> list[list]:
    """Each line's values in a key=value file not in writer form, or that a check fails:
    converted by ``table``'s types in key order (a repeated key keeps its last value) and
    passed by ``check(*values)``. A line's first fault is its error: a token not
    key=value, then the first missing key, the first bad value, ``check``'s error."""
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
        try:
            values = [*map(_value, keys, types, tokens)]
            check(*values)
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
        out.append(values)
    return out


def _writer_form(text: str, pattern: re.Pattern) -> Optional[list]:
    """What ``pattern``, a multi-line regex of one whole line, captures on each line of a
    file in writer form: the ``format_version`` header, then one ``pattern`` line per
    record, the last ending in a newline. None for any other file."""
    if text.startswith(f"format_version={FORMAT_VERSION}\n") and text.endswith("\n"):
        found = pattern.findall(text)
        if len(found) == text.count("\n") - 1:  # every line after the header is a record
            return found
    return None


@cache
def _canonical(table) -> tuple[re.Pattern, list[int], list[int]]:
    """A regex that matches each writer-form line of a ``table`` file, capturing its
    values, and the positions of ``table``'s int keys and of its float keys."""
    line = " ".join(f"{key}=(\\S+)" for key, _, _ in table)
    ints, floats = ([i for i, (_, t, _) in enumerate(table) if t is kind] for kind in (int, float))
    return re.compile(f"^{line}$", re.MULTILINE), ints, floats


def _columns(text: str, table, check) -> tuple[list[list[int]], np.ndarray]:
    """A record file's values as columns in ``table``'s key order: a list of ints per int
    key, and one (k, N) float64 array of the k float keys' values.

    A file in writer form (``_writer_form``: each record line holds each key once, in
    table order, single-spaced) is read in one pass: one regex ``findall`` splits it,
    one ``np.array`` call converts its float tokens (under ``float()``'s rules),
    ``int()`` its int tokens, and ``_valid`` checks the float columns at once for what
    ``check`` checks line by line. Any other file, or one that a check fails, is read
    by ``_records``, which names the first bad line.
    """
    pattern, int_at, float_at = _canonical(table)
    found = _writer_form(text, pattern)
    if found is not None:
        tokens = list(zip(*found)) or [()] * len(table)
        try:
            ints = [list(map(int, tokens[i])) for i in int_at]
            floats = np.array([tokens[i] for i in float_at], dtype=np.float64)
        except ValueError:
            pass
        else:
            big = sys.float_info.max  # number's rule for an int
            if all(-big <= min(c) and max(c) <= big for c in ints if c) and _valid(floats):
                return ints, floats
    values = list(zip(*_records(text, table, check))) or [()] * len(table)
    return [list(values[i]) for i in int_at], np.array([values[i] for i in float_at], dtype=np.float64)


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


def _getter(table) -> operator.attrgetter:
    """The values of a record's ``table`` keys, in key order; a box key reads the record's ``bbox``."""
    box = {f.name for f in fields(BBox)}
    return operator.attrgetter(*(f"bbox.{key}" if key in box else key for key, _, _ in table))


def _write(table, rows: Iterable[tuple]) -> str:
    """A record file with one ``table`` line per row of values in key order."""
    line = " ".join(f"{key}=%{fmt}" for key, _, fmt in table)
    return write_records(map(line.__mod__, rows))


def _detection(frame, class_id, x, y, w, h, confidence) -> Detection:
    return Detection(_box(x, y, w, h), confidence, class_id, frame)


def _valid(floats: np.ndarray) -> bool:
    """Whether the float columns of a detection or result table (x, y, w, h, confidence,
    then a result's measurements, the valid patch fraction last) pass ``number``'s rule
    and the checks of ``_detection`` and ``_result`` in every row."""
    with np.errstate(over="ignore", invalid="ignore"):  # a far edge beyond the float range fails
        right_bottom = floats[:2] + floats[2:4]
    return bool(np.isfinite(floats).all() and np.isfinite(right_bottom).all()
                and (floats[2:] >= 0.0).all() and (floats[4] <= 1.0).all() and (floats[-1] <= 1.0).all())


FrameDetections = tuple[np.ndarray, np.ndarray, list[int]]  # [x, y, w, h] rows, confidences, class ids


def detection_columns(text: str) -> dict[int, FrameDetections]:
    """Line-delimited detections grouped by frame, frames in their first line's order:
    each frame's ``[x, y, w, h]`` rows (M, 4), confidences (M,) and class ids, in
    input order."""
    (frame, class_id), floats = _columns(text, _DETECTION, _detection)
    xywh, confidence = floats[:4].T, floats[4]
    if len(set(frame)) == 1:  # a file per frame
        return {frame[0]: (xywh, confidence, class_id)}
    rows: dict[int, list[int]] = {}
    for k, n in enumerate(frame):
        rows.setdefault(n, []).append(k)
    return {n: (xywh[r], confidence[r], [class_id[k] for k in r]) for n, r in rows.items()}


def parse_detections(text: str) -> dict[int, list[Detection]]:
    """Line-delimited detections grouped by frame, input order preserved."""
    return {n: [_detection(n, k, *box, c) for box, c, k in zip(xywh.tolist(), confidence.tolist(), class_id)]
            for n, (xywh, confidence, class_id) in detection_columns(text).items()}


def write_detections(dets_by_frame: dict[int, list[Detection]]) -> str:
    return _write(_DETECTION, map(_getter(_DETECTION),
                                  (d for frame in sorted(dets_by_frame) for d in dets_by_frame[frame])))


@dataclass(frozen=True)
class FrameResultRecord:
    """One row of a result table."""

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


def _record(frame, track_id, class_id, x, y, w, h, *values) -> FrameResultRecord:
    return FrameResultRecord(frame, track_id, class_id, BBox(x, y, w, h), *values)


ResultColumns = namedtuple("ResultColumns", [key for key, _, _ in _RESULT])


class ResultTable(Sequence[FrameResultRecord]):
    """Result records held as one immutable table of columns: ``columns`` is a
    ``ResultColumns`` of one sequence of Python numbers per ``_RESULT`` key, in
    its order, each as long as the table. Indexing and iteration build each
    ``FrameResultRecord`` on demand, a slice is a table, and ``==`` compares
    record by record with any sequence of records. Tables share columns, and
    no code changes a column in place. Nothing is checked: the columns are a
    checked file's, the pipeline's own, or taken from records. ``layout`` caches
    ``pipeline.TrackLayout``: ``smoothed`` passes it on, a slice starts without it."""

    __slots__ = ("columns", "layout")

    def __init__(self, columns: ResultColumns, layout=None):
        self.columns = columns
        self.layout = layout

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ResultTable(self.columns._make(c[i] for c in self.columns))
        return _record(*(c[i] for c in self.columns))

    def __iter__(self) -> Iterator[FrameResultRecord]:
        return map(_record, *self.columns)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"ResultTable({list(self)!r})"

    def smoothed(self, area_m2: Sequence[float], nis: Sequence[float]) -> "ResultTable":
        """This table with its smoothed area and NIS columns replaced; it shares
        every other column, and so its layout."""
        return ResultTable(self.columns._replace(area_smoothed_m2=area_m2, nis=nis), self.layout)


def result_table(records: Sequence[FrameResultRecord]) -> ResultTable:
    """``records`` as a table: the table itself, or the columns of a sequence of records."""
    if isinstance(records, ResultTable):
        return records
    columns = list(zip(*map(_getter(_RESULT), records))) or [()] * len(_RESULT)
    return ResultTable(ResultColumns._make(columns))


def _result(frame, track_id, class_id, x, y, w, h, confidence, *measured) -> None:
    """A result record's checks: a detection's, then each measurement >= 0, the fraction <= 1."""
    _detection(frame, class_id, x, y, w, h, confidence)
    for (key, _, _), v, top in zip(_RESULT[-5:], measured, (math.inf,) * 4 + (1.0,)):
        if not 0.0 <= v <= top:
            raise ValueError(f"{key} {v} outside [0, {top:g}]")


def parse_results(text: str) -> ResultTable:
    ints, floats = _columns(text, _RESULT, _result)
    return ResultTable(ResultColumns(*ints, *floats.tolist()))


def write_results(records: Sequence[FrameResultRecord]) -> str:
    """A result file of ``records``, each line formatted from the table's columns."""
    return _write(_RESULT, zip(*result_table(records).columns))


# ---------------------------------------------------------------------------
# motion files: bare numbers, either a 3x3 transform or raw correspondences


_PAIR = re.compile(r"^(\S+) (\S+) (\S+) (\S+)$", re.MULTILINE)  # a correspondence line in writer form


def parse_motion_file(text: str):
    """Returns ('transform', 3x3 array) or ('correspondences', (n, 2, 2) float64
    array of ``[[x0, y0], [x1, y1]]`` rows, shape (0, 2, 2) for no data lines).

    A correspondence file in writer form (``_writer_form``, four numbers a
    line) is read in one pass by one ``np.array`` call, under ``float()``'s
    rules. Any other file, or one with a token that is not a number, is read
    line by line, each line converted and checked as it is read; the first
    fault raises.
    """
    found = _writer_form(text, _PAIR)
    if found is not None:
        try:
            return "correspondences", np.array(found, dtype=np.float64).reshape(-1, 2, 2)
        except ValueError:
            pass  # the line loop names the line
    rows = []  # the transform's rows or the correspondence lines: never both
    transform_line = None
    for line_no, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "transform":
            if len(parts) > 1:
                raise MalformedLine(line_no, f"tokens after the transform keyword in {line!r}")
            if transform_line is not None:
                raise MalformedLine(line_no, "second transform keyword")
            if rows:
                raise MalformedLine(line_no, "transform keyword after correspondence lines")
            transform_line = line_no
            continue
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise MalformedLine(line_no, f"non-numeric motion line {line!r}") from None
        if transform_line is not None:
            if len(nums) != 3:
                raise MalformedLine(line_no, "transform rows need 3 numbers")
            if not all(map(math.isfinite, nums)):
                raise MalformedLine(line_no, f"non-finite transform row {line!r}")
        elif len(nums) != 4:
            raise MalformedLine(line_no, "correspondence lines need 4 numbers")
        rows.append(nums)
    if transform_line is not None:
        if len(rows) != 3:
            raise MalformedLine(transform_line, f"transform needs 3 rows, got {len(rows)}")
        return "transform", np.array(rows)
    return "correspondences", np.array(rows, dtype=np.float64).reshape(-1, 2, 2)


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
