import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from areatrack import synth
from areatrack.cli import main
from areatrack.errors import (
    BadMagic,
    DimensionMismatch,
    MalformedLine,
    ManifestError,
    TruncatedPayload,
)
from areatrack.formats import (
    FORMAT_VERSION,
    _RESULT_KEYS,
    _data_lines,
    FrameEntry,
    FrameResultRecord,
    SequenceManifest,
    parse_detections,
    parse_motion_file,
    parse_pfm,
    parse_results,
    write_correspondences,
    write_detections,
    write_pfm,
    write_records,
    write_results,
)
from areatrack.geometry import BBox, CameraIntrinsics, DepthMap, Detection


class TestPfm:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 30.0, (7, 11)).astype(np.float32)
        d = DepthMap(11, 7, vals)
        d2 = parse_pfm(write_pfm(d))
        assert d2.width == 11 and d2.height == 7
        assert np.array_equal(d2.values, vals)

    def test_hand_built_little_endian(self):
        # 2x2 map, rows stored bottom-to-top: disk row 0 is image row 1
        payload = struct.pack("<4f", 3.0, 4.0, 1.0, 2.0)
        data = b"Pf\n2 2\n-1.0\n" + payload
        d = parse_pfm(data)
        assert d.values[0, 0] == 1.0
        assert d.values[0, 1] == 2.0
        assert d.values[1, 0] == 3.0
        assert d.values[1, 1] == 4.0

    def test_big_endian_positive_scale(self):
        payload = struct.pack(">2f", 5.0, 6.0)
        d = parse_pfm(b"Pf\n2 1\n1.0\n" + payload)
        assert d.values[0, 0] == 5.0
        assert d.values[0, 1] == 6.0

    def test_decode_is_a_read_only_view_of_the_input(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.5, 30.0, (9, 13)).astype(np.float32)
        data = write_pfm(DepthMap(13, 9, vals))
        d = parse_pfm(data)
        assert np.shares_memory(d.values, np.frombuffer(data, np.uint8))
        assert not d.values.flags.writeable
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0
        assert np.array_equal(d.values, vals)

    def test_trailing_bytes_ignored(self):
        vals = np.arange(12, dtype=np.float32).reshape(3, 4) + 1.0
        data = write_pfm(DepthMap(4, 3, vals))
        d = parse_pfm(data + b"\x00\xff trailing junk\n")
        assert np.array_equal(d.values, vals)

    def test_truncated_payload_message_gives_byte_counts(self):
        with pytest.raises(TruncatedPayload, match=r"^expected 64 payload bytes, got 10$"):
            parse_pfm(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)

    def test_big_endian_decodes_like_little_endian(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.5, 30.0, (6, 10)).astype(np.float32)
        vals[2, 3] = np.nan
        little = parse_pfm(write_pfm(DepthMap(10, 6, vals)))
        big = parse_pfm(b"Pf\n10 6\n1.0\n" + vals[::-1].astype(">f4").tobytes())
        assert np.array_equal(big.values, little.values, equal_nan=True)
        assert np.array_equal(big.values, vals, equal_nan=True)
        assert big.values.dtype == np.float32 and not big.values.flags.writeable

    def test_color_magic_rejected(self):
        with pytest.raises(BadMagic):
            parse_pfm(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)

    def test_truncated_payload(self):
        with pytest.raises(TruncatedPayload):
            parse_pfm(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayload):
            parse_pfm(b"Pf\n2 2")

    def test_bad_dimensions(self):
        with pytest.raises(DimensionMismatch):
            parse_pfm(b"Pf\n2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(DimensionMismatch):
            parse_pfm(b"Pf\n0 2\n-1.0\n")
        # a scale of zero or not finite gives no byte order; nan once read
        # this little-endian [1.5, 2.5] as big-endian [6.9e-41, 1.2e-41]
        payload = struct.pack("<2f", 1.5, 2.5)
        for scale, named in [(b"0", "0.0"), (b"-0.0", "-0.0"), (b"nan", "nan"),
                             (b"inf", "inf"), (b"-inf", "-inf")]:
            with pytest.raises(DimensionMismatch, match=f"got {named}$"):
                parse_pfm(b"Pf\n2 1\n" + scale + b"\n" + payload)
        with pytest.raises(DimensionMismatch):
            parse_pfm(b"Pf\n2 1\nx\n" + payload)


class TestDetections:
    def test_roundtrip(self):
        dets = {
            0: [Detection(BBox(1.5, 2.0, 30.0, 20.0), 0.9, 0, 0)],
            2: [
                Detection(BBox(5.0, 5.0, 10.0, 10.0), 0.4, 0, 2),
                Detection(BBox(50.0, 5.0, 12.0, 9.0), 0.7, 1, 2),
            ],
        }
        out = parse_detections(write_detections(dets))
        assert out == dets

    def test_header_and_comments_skipped(self):
        text = (
            f"format_version={FORMAT_VERSION}\n"
            "# a comment\n"
            "\n"
            "frame=0 class_id=0 x=1 y=2 w=3 h=4 confidence=0.5\n"
        )
        out = parse_detections(text)
        assert list(out) == [0]
        assert out[0][0].bbox == BBox(1, 2, 3, 4)

    def test_confidence_out_of_range(self):
        with pytest.raises(MalformedLine) as exc:
            parse_detections("frame=0 class_id=0 x=1 y=2 w=3 h=4 confidence=1.7\n")
        assert exc.value.line_no == 1

    def test_missing_field(self):
        with pytest.raises(MalformedLine):
            parse_detections("frame=0 class_id=0 x=1 y=2 w=3 confidence=0.5\n")

    def test_bad_token(self):
        with pytest.raises(MalformedLine) as exc:
            parse_detections("# ok\nframe=0 bogus confidence=0.5\n")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("field", ["x", "y", "w", "h", "confidence"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_field(self, field, value):
        fields = {"frame": "0", "class_id": "0", "x": "1", "y": "2", "w": "3", "h": "4",
                  "confidence": "0.5", field: value}
        line = " ".join(f"{k}={v}" for k, v in fields.items())
        with pytest.raises(MalformedLine) as exc:
            parse_detections(f"format_version=1\n# ok\n{line}\n")
        assert exc.value.line_no == 3

    def test_empty_text(self):
        assert parse_detections("") == {}
        assert parse_detections(f"format_version={FORMAT_VERSION}\n") == {}


class TestResults:
    def rec(self):
        return FrameResultRecord(
            frame=3,
            track_id=2,
            class_id=0,
            bbox=BBox(10.0, 20.0, 30.0, 15.0),
            confidence=0.85,
            distance_m=6.25,
            area_raw_m2=0.1931,
            area_smoothed_m2=0.1897,
            nis=0.73,
            valid_patch_fraction=0.98,
        )

    def test_roundtrip(self):
        recs = [self.rec()]
        out = parse_results(write_results(recs))
        assert len(out) == 1
        r = out[0]
        assert (r.frame, r.track_id, r.class_id) == (3, 2, 0)
        assert r.area_smoothed_m2 == pytest.approx(0.1897)
        assert r.valid_patch_fraction == pytest.approx(0.98)

    def test_write_is_stable(self):
        recs = [self.rec()]
        assert write_results(recs) == write_results(recs)

    def test_malformed_value(self):
        line = self.rec().to_line().replace("nis=0.73000000", "nis=oops")
        with pytest.raises(MalformedLine):
            parse_results(line + "\n")

    def test_far_edge_overflow(self):
        line = self.rec().to_line().replace("x=10.000000", "x=1e308").replace("w=30.000000", "w=1e308")
        with pytest.raises(MalformedLine, match="far edge overflows") as exc:
            parse_results(f"format_version=1\n{line}\n")
        assert exc.value.line_no == 2


class TestMotionFiles:
    def test_transform_roundtrip(self):
        m = np.array([[1.0, 0.01, 5.0], [-0.01, 1.0, -2.0], [0.0, 0.0, 1.0]])
        text = write_records(["transform", *(" ".join(f"{v:.10g}" for v in row) for row in m)])
        kind, got = parse_motion_file(text)
        assert kind == "transform"
        assert np.allclose(got, m)

    def test_correspondences_roundtrip(self):
        pairs = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.5, 6.5], [7.0, 8.0]]])
        kind, got = parse_motion_file(write_correspondences(pairs))
        assert kind == "correspondences"
        assert got.dtype == np.float64 and got.shape == (2, 2, 2)
        assert np.array_equal(got, pairs)

    def test_wrong_arity(self):
        with pytest.raises(MalformedLine):
            parse_motion_file("1.0 2.0 3.0\n")  # 3 numbers outside a transform block

    @pytest.mark.parametrize("rows", [2, 4])
    def test_transform_row_count_names_keyword_line(self, rows):
        text = "format_version=1\n# motion\ntransform\n" + "1 0 0\n" * rows
        with pytest.raises(MalformedLine, match="transform needs 3 rows") as exc:
            parse_motion_file(text)
        assert exc.value.line_no == 3

    def test_non_numeric(self):
        with pytest.raises(MalformedLine):
            parse_motion_file("1.0 x 3.0 4.0\n")

    @pytest.mark.parametrize("keyword", ["transform 9 9", "transform 1"])
    def test_tokens_after_transform_keyword(self, keyword):
        with pytest.raises(MalformedLine, match="tokens after the transform keyword") as exc:
            parse_motion_file(f"format_version=1\n{keyword}\n1 0 0\n0 1 0\n0 0 1\n")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text, line, message", [
        ("1 2 3 4\ntransform\n1 0 0\n0 1 0\n0 0 1\n", 2, "after correspondence lines"),
        ("transform\n1 0 0\ntransform\n0 1 0\n0 0 1\n", 3, "second transform keyword"),
        ("transform\n1 0 0\n0 1 0\n0 0 1\ntransform\n", 5, "second transform keyword"),
    ], ids=["pairs-then-transform", "repeated-keyword", "trailing-keyword"])
    def test_mixed_or_repeated_blocks(self, text, line, message):
        with pytest.raises(MalformedLine, match=message) as exc:
            parse_motion_file("format_version=1\n" + text)
        assert exc.value.line_no == line + 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_transform_entry(self, value):
        # such a matrix passes the determinant check and would put NaN into
        # every track centre
        text = f"format_version=1\ntransform\n1 0 {value}\n0 1 0\n0 0 1\n"
        with pytest.raises(MalformedLine) as exc:
            parse_motion_file(text)
        assert exc.value.line_no == 3


def reference_parse_motion_file(text: str):
    """The line-at-a-time motion parser, kept as an oracle for the one-pass
    parse: each line is split and converted with ``float()`` as it is read."""
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


def _motion_outcome(parse, text):
    """What ``parse`` makes of ``text``: the array with its dtype, shape and
    bytes, or the error's type, line and message."""
    try:
        kind, arr = parse(text)
    except MalformedLine as e:
        return "error", type(e), e.line_no, str(e)
    return kind, arr.dtype, arr.shape, arr.tobytes()


FINITE_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.6f}"),
    st.sampled_from(["0", "-0", "+.5", "5.", "1_000.25", "1e-400", "١٢", "１.５", "1E+3"]),
)
NUMBER_TOKENS = st.one_of(
    FINITE_TOKENS,
    st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-NaN", "1e400", "-1e400"]),
)
BAD_TOKENS = st.sampled_from(["x", "1,5", "0x10", "nan(1)", "1__0", "_1", "--1", "1e", "#"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def motion_rows(draw):
    """The data lines of a valid motion file as token lists: a transform
    block or 0-8 correspondence lines."""
    if draw(st.booleans()):
        return [["transform"]] + [draw(st.lists(FINITE_TOKENS, min_size=3, max_size=3))
                                  for _ in range(3)]
    return draw(st.lists(st.lists(NUMBER_TOKENS, min_size=4, max_size=4), max_size=8))


@st.composite
def corrupt(draw, rows):
    """``rows`` with one or two faults, each on a line of its own, in either order."""
    rows = [list(r) for r in rows]
    numbers = [r for r in rows if r != ["transform"]]  # lines not yet faulted, changed in place
    faults = st.sampled_from(["count", "word", "hash", "nonfinite", "keyword", "header"])
    for fault in draw(st.lists(faults, min_size=1, max_size=2)):
        if fault in ("keyword", "header") or not numbers:
            line = (draw(st.sampled_from([["transform"], ["transform", "9"]]))
                    if fault == "keyword" else ["format_version=2"])
            rows.insert(draw(st.integers(0, len(rows))), line)
            continue
        row = numbers.pop(draw(st.integers(0, len(numbers) - 1)))
        if fault == "count":
            if draw(st.booleans()):
                del row[draw(st.integers(0, len(row) - 1))]
            else:
                row.insert(draw(st.integers(0, len(row))), draw(NUMBER_TOKENS))
        elif fault == "word":
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_TOKENS)
        elif fault == "hash":
            row += draw(st.sampled_from([["#"], ["#", "note"], ["#x"]]))
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["nan", "-inf", "1e400"]))
    return rows


@st.composite
def motion_text(draw, rows):
    """``rows`` written out with a header, comments, blank lines and odd spacing."""
    out = [draw(st.sampled_from(["", "format_version=1\n", "# motion\nformat_version=1\n"]))]
    for row in rows:
        out.append(draw(st.sampled_from(["", "", "\n", "   \n", "# c\n", "\t# 1 2 3 4\n"])))
        sep = draw(SEPARATORS)
        out.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(row)
                   + draw(st.sampled_from(["", " ", "\t"])) + "\n")
    return "".join(out)


class TestMotionFileEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_valid_files(self, data):
        text = data.draw(motion_text(data.draw(motion_rows())))
        want = _motion_outcome(reference_parse_motion_file, text)
        assert want[0] != "error", want
        assert _motion_outcome(parse_motion_file, text) == want

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_invalid_files(self, data):
        rows = data.draw(motion_rows())
        text = data.draw(motion_text(data.draw(corrupt(rows))))
        want = _motion_outcome(reference_parse_motion_file, text)
        assert _motion_outcome(parse_motion_file, text) == want

    @pytest.mark.parametrize("text, line, message", [
        ("1 2 3 4\n1 x 3 4\n1 2 3\n", 2, "non-numeric"),
        ("1 2 3 4\n1 2 3\n1 x 3 4\n", 2, "need 4 numbers"),
        ("1 2 3 4 # x\n", 1, "non-numeric"),
        ("1 2 3 #\n", 1, "non-numeric"),
        ("transform\n1 0 nan\n0 1 x\n0 0 1\n", 2, "non-finite"),
        ("transform\n1 0 x\n0 1 nan\n0 0 1\n", 2, "non-numeric"),
        ("transform\n1 0 inf\n0 1\n0 0 1\n", 2, "non-finite"),
        ("1 2 3 x\nformat_version=2\n", 1, "non-numeric"),
        ("1 2 3 4\nformat_version=2\n1 2 3 x\n", 2, "unsupported"),
        ("transform\n1 0 0\n0 1 0\n0 0 1\n0 0 1\n", 1, "needs 3 rows, got 4"),
    ], ids=["word-then-count", "count-then-word", "trailing-hash", "hash-as-fourth-token",
            "nonfinite-then-word", "word-then-nonfinite", "nonfinite-then-count",
            "word-then-header", "header-then-word", "fourth-transform-row"])
    def test_first_bad_line_named(self, text, line, message):
        with pytest.raises(MalformedLine, match=message) as exc:
            parse_motion_file(text)
        assert exc.value.line_no == line
        assert _motion_outcome(parse_motion_file, text) == _motion_outcome(
            reference_parse_motion_file, text)


def reference_fields(line: str, line_no: int, keys: tuple[str, ...]) -> dict[str, str]:
    """The key=value tokens of a record line, which must hold every key in ``keys``."""
    fields = {}
    for token in line.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise MalformedLine(line_no, f"token {token!r} is not key=value")
        fields[key] = value
    for k in keys:
        if k not in fields:
            raise MalformedLine(line_no, f"missing field {k!r}")
    return fields


def reference_box(fields: dict[str, str]) -> BBox:
    box = BBox(float(fields["x"]), float(fields["y"]), float(fields["w"]), float(fields["h"]))
    # BBox itself allows such boxes; the estimator cannot index them
    if not (math.isfinite(box.right) and math.isfinite(box.bottom)):
        raise ValueError(f"box far edge overflows: right={box.right} bottom={box.bottom}")
    return box


def reference_parse_detections(text: str) -> dict[int, list[Detection]]:
    """The per-parser detections loop, kept as an oracle for ``formats._records``."""
    out: dict[int, list[Detection]] = {}
    for line_no, line in _data_lines(text):
        f = reference_fields(line, line_no, ("frame", "class_id", "x", "y", "w", "h", "confidence"))
        try:
            det = Detection(frame=int(f["frame"]), class_id=int(f["class_id"]),
                            bbox=reference_box(f), confidence=float(f["confidence"]))
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
        out.setdefault(det.frame, []).append(det)
    return out


def reference_parse_results(text: str) -> list[FrameResultRecord]:
    """The per-parser results loop, kept as an oracle for ``formats._records``."""
    out = []
    for line_no, line in _data_lines(text):
        f = reference_fields(line, line_no, _RESULT_KEYS)
        try:
            out.append(
                FrameResultRecord(
                    frame=int(f["frame"]),
                    track_id=int(f["track_id"]),
                    class_id=int(f["class_id"]),
                    bbox=reference_box(f),
                    confidence=float(f["confidence"]),
                    distance_m=float(f["distance_m"]),
                    area_raw_m2=float(f["area_raw_m2"]),
                    area_smoothed_m2=float(f["area_smoothed_m2"]),
                    nis=float(f["nis"]),
                    valid_patch_fraction=float(f["valid_patch_fraction"]),
                )
            )
        except (ValueError, TypeError) as e:
            raise MalformedLine(line_no, str(e)) from None
    return out


def _record_outcome(parse, text):
    """What ``parse`` makes of ``text``: the records' repr, which tells NaN,
    -0.0 and every float bit apart, or the error's type, line and message."""
    try:
        return "ok", repr(parse(text))
    except MalformedLine as e:
        return "error", type(e), e.line_no, str(e)


COORDS = st.floats(0, 4000, allow_subnormal=False)
BOXES = st.builds(BBox, COORDS, COORDS, COORDS, COORDS)
UNIT = st.floats(0, 1)


@st.composite
def detection_rows(draw):
    """The data lines of a ``write_detections`` file as token lists."""
    dets = [Detection(draw(BOXES), draw(UNIT), draw(st.integers(0, 1)), draw(st.integers(-3, 50)))
            for _ in range(draw(st.integers(0, 4)))]
    by_frame = {}
    for d in dets:
        by_frame.setdefault(d.frame, []).append(d)
    return [line.split() for line in write_detections(by_frame).splitlines()[1:]]


@st.composite
def result_rows(draw):
    """The data lines of a ``write_results`` file as token lists."""
    values = st.floats(-10, 1e3)
    recs = [FrameResultRecord(draw(st.integers(-3, 50)), draw(st.integers(0, 99)), draw(st.integers(0, 1)),
                              draw(BOXES), *draw(st.tuples(UNIT, values, values, values, values, UNIT)))
            for _ in range(draw(st.integers(0, 4)))]
    return [line.split() for line in write_results(recs).splitlines()[1:]]


RECORD_VALUES = st.sampled_from([
    "oops", "", "1,5", "0x10", "1__0", "=", "nan", "inf", "-inf", "-NaN", "1e400",
    "1e308", "-1e308", "1.7", "-0.1", "-5", "3.0", "3", "-0", "1_0", "٣",
])
NO_EQ_TOKENS = st.sampled_from(["bogus", "x", "1.5", "frame", "#", "-"])


@st.composite
def corrupt_records(draw, rows):
    """``rows`` with zero to four changes, each on a line chosen at random:
    shuffled tokens, an extra or repeated key, one or two dropped keys, a
    token with no ``=``, or odd values for one to three keys. Odd values are
    drawn most often, so that one line often has two of them."""
    rows = [list(r) for r in rows]
    changes = st.sampled_from(["shuffle", "extra", "repeat", "drop", "drop2", "no-eq"] + ["value"] * 4)
    for change in draw(st.lists(changes, max_size=4)) if rows else []:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        keys = [t.partition("=")[0] for t in row if "=" in t]
        if change == "shuffle":
            row[:] = draw(st.permutations(row))
        elif change in ("extra", "repeat"):
            key = (draw(st.sampled_from(["extra", "id", "X", "frame_", ""])) if change == "extra"
                   or not keys else draw(st.sampled_from(keys)))
            value = draw(st.one_of(RECORD_VALUES, st.sampled_from([t.partition("=")[2] for t in row])))
            row.insert(draw(st.integers(0, len(row))), f"{key}={value}")
        elif change in ("drop", "drop2") and keys:
            for key in draw(st.permutations(list(dict.fromkeys(keys))))[:1 + (change == "drop2")]:
                row[:] = [t for t in row if t.partition("=")[0] != key]
        elif change == "no-eq":
            row.insert(draw(st.integers(0, len(row))), draw(NO_EQ_TOKENS))
        elif change == "value" and keys:
            for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
                row[:] = [f"{key}={draw(RECORD_VALUES)}" if t.partition("=")[0] == key else t
                          for t in row]
    return rows


RECORD_PARSERS = [
    pytest.param(parse_detections, reference_parse_detections, detection_rows, id="detections"),
    pytest.param(parse_results, reference_parse_results, result_rows, id="results"),
]


class TestRecordFileEqualsOracle:
    @pytest.mark.parametrize("parse, reference, rows", RECORD_PARSERS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_written_files(self, parse, reference, rows, data):
        text = data.draw(motion_text(data.draw(rows())))
        want = _record_outcome(reference, text)
        assert want[0] == "ok", want
        assert _record_outcome(parse, text) == want

    @pytest.mark.parametrize("parse, reference, rows", RECORD_PARSERS)
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_changed_files(self, parse, reference, rows, data):
        text = data.draw(motion_text(data.draw(corrupt_records(data.draw(rows())))))
        assert _record_outcome(parse, text) == _record_outcome(reference, text)

    @pytest.mark.parametrize("line, message", [
        ("frame=0 bogus w=3", "token 'bogus' is not key=value"),
        ("w=3 h=4 confidence=0.5 x=1", "missing field 'frame'"),
        ("frame=0 class_id=0 confidence=0.5 y=2", "missing field 'x'"),
        ("frame=3.0 class_id=0 x=1 y=2 w=3 h=4 confidence=9", "invalid literal for int"),
        ("frame=0 class_id=0 x=1 y=2 w=3 h=4 confidence=9", "confidence 9.0 outside"),
        ("frame=0 class_id=0 x=1e308 y=2 w=1e308 h=4 confidence=x", "far edge overflows"),
        ("h=4 x=1 w=3 frame=0 confidence=0.5 class_id=0 y=9 y=2 x=oops x=1", None),
    ], ids=["token-then-missing", "first-missing-key", "missing-then-value",
            "frame-then-confidence", "confidence", "box-then-confidence", "repeated-key"])
    def test_first_fault_of_a_line(self, line, message):
        text = f"format_version=1\n# c\n{line}\n"
        if message is None:
            assert parse_detections(text) == {0: [Detection(BBox(1, 2, 3, 4), 0.5, 0, 0)]}
        else:
            with pytest.raises(MalformedLine, match=message) as exc:
                parse_detections(text)
            assert exc.value.line_no == 3
        assert _record_outcome(parse_detections, text) == _record_outcome(
            reference_parse_detections, text)


class TestRecordLines:
    def test_write_records(self):
        assert write_records([]) == f"format_version={FORMAT_VERSION}\n"
        assert write_records(iter(["a=1", "b=2"])) == f"format_version={FORMAT_VERSION}\na=1\nb=2\n"

    @pytest.mark.parametrize("parse, empty", [
        (parse_detections, {}), (parse_results, []),
        (parse_motion_file, ("correspondences", np.zeros((0, 2, 2)))),
    ])
    def test_header_is_a_lone_format_version_token(self, parse, empty):
        # assert_equal compares the nested array's shape, not only its (no) values
        np.testing.assert_equal(parse("# c\n\nformat_version=1\n"), empty)
        with pytest.raises(MalformedLine) as exc:
            parse("# c\n\nformat_version=1 2\n")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("parse", [parse_detections, parse_results, parse_motion_file])
    @pytest.mark.parametrize("version", ["99", "0", "01", "1.0", ""])
    def test_other_format_version_rejected(self, parse, version):
        with pytest.raises(MalformedLine, match=f"unsupported format_version={version}, expected 1") as exc:
            parse(f"# c\nformat_version={version}\n")
        assert exc.value.line_no == 2


class TestManifest:
    def write_minimal(self, tmp_path, frames=(0, 1)):
        for k in frames:
            (tmp_path / f"d{k}.pfm").write_bytes(
                write_pfm(DepthMap(2, 2, np.ones((2, 2), np.float32)))
            )
            (tmp_path / f"t{k}.txt").write_text("format_version=1\n")
        lines = [
            "intrinsics:",
            "  f_u: 300.0",
            "  f_v: 300.0",
            "  p_u: 1.0",
            "  p_v: 1.0",
            "  width: 2",
            "  height: 2",
            "frames:",
        ]
        for k in frames:
            lines += [f"  - frame: {k}", f"    depth: d{k}.pfm", f"    detections: t{k}.txt"]
        p = tmp_path / "manifest.yaml"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_load(self, tmp_path):
        m = SequenceManifest.load(self.write_minimal(tmp_path))
        assert m.intrinsics.width == 2
        assert [f.frame for f in m.frames] == [0, 1]
        assert m.frames[0].motion_path is None

    def test_missing_file(self, tmp_path):
        p = self.write_minimal(tmp_path)
        (tmp_path / "d1.pfm").unlink()
        with pytest.raises(ManifestError):
            SequenceManifest.load(p)

    def test_frames_must_increase(self, tmp_path):
        p = self.write_minimal(tmp_path, frames=(1, 1))
        with pytest.raises(ManifestError):
            SequenceManifest.load(p)

    def test_not_a_mapping(self, tmp_path):
        p = tmp_path / "m.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ManifestError):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("key, value, message", [
        ("frames", 5, "frames must be a list"),
        ("frames", None, "frames must be a list"),
        ("frames", "abc", "frames must be a list"),
        ("frames", {"frame": 0}, "frames must be a list"),
        ("fps", "x", "fps must be a finite number"),
        ("fps", None, "fps must be a finite number"),
    ])
    def test_bad_top_level_value(self, tmp_path, key, value, message):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc[key] = value
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError, match=message):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("key", ["f_u", "f_v"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -300.0])
    def test_bad_focal_length(self, tmp_path, key, value):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["intrinsics"][key] = value
        p.write_text(yaml.safe_dump(doc))
        # a non-finite value fails the number check every YAML loader makes
        message = "focal lengths must be positive and finite" if math.isfinite(value) else (
            f"{key} must be a finite number, got {value!r}")
        with pytest.raises(ManifestError, match=f"^{p}: {message}"):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("key", ["extra", "frame", "intrinsic"])
    def test_unknown_top_level_key(self, tmp_path, key):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc[key] = 1
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError, match=f"^{p}: unknown manifest key '{key}'"):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("key", ["motoin", "depth_path", "confidence"])
    def test_unknown_frame_entry_key(self, tmp_path, key):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["frames"][1][key] = "t1.txt"
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError, match=f"^{p}: unknown frame entry key '{key}'"):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("version, message", [
        (99, "unsupported format_version 99, expected 1"),
        (0, "unsupported format_version 0, expected 1"),
        ("1", "format_version must be a finite whole number, got '1'"),
        (True, "format_version must be a finite whole number, got True"),
        (None, "format_version must be a finite whole number, got None"),
    ])
    def test_other_format_version_rejected(self, tmp_path, version, message):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["format_version"] = version
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError, match=f"^{p}: {message}$"):
            SequenceManifest.load(p)

    def test_every_allowed_key_loads(self, tmp_path):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc |= {"format_version": FORMAT_VERSION, "dataset": "d", "fps": 10.0}
        doc["frames"][0]["motion"] = "t0.txt"
        p.write_text(yaml.safe_dump(doc))
        m = SequenceManifest.load(p)
        assert (m.dataset, m.fps, m.frames[0].motion_path) == ("d", 10.0, tmp_path / "t0.txt")

    @pytest.mark.parametrize("value", [0, False, None])
    def test_motion_absent_only_when_null(self, tmp_path, value):
        # only a missing or null motion means none; any other value is a path
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["frames"][1]["motion"] = value
        p.write_text(yaml.safe_dump(doc))
        if value is None:
            assert SequenceManifest.load(p).frames[1].motion_path is None
        else:
            with pytest.raises(ManifestError, match=f"^{p}: bad frame entry"):
                SequenceManifest.load(p)

    def test_dump_load_roundtrip(self, tmp_path):
        p = self.write_minimal(tmp_path)
        m = SequenceManifest.load(p)
        out = tmp_path / "copy.yaml"
        m.dump(out)
        m2 = SequenceManifest.load(out)
        assert m2.intrinsics == m.intrinsics
        assert [f.frame for f in m2.frames] == [f.frame for f in m.frames]

    @pytest.mark.parametrize("key", ["intrinsics", "frames"])
    def test_missing_top_level_key_named(self, tmp_path, key):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        del doc[key]
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError, match=f"^{p}: missing key '{key}'$"):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("key", ["frame", "depth", "detections"])
    def test_missing_frame_entry_key_named(self, tmp_path, key):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        del doc["frames"][1][key]
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError, match=rf"^{p}: bad frame entry \{{.*\}}: missing key '{key}'$"):
            SequenceManifest.load(p)

    @pytest.mark.parametrize("value", [None, "", "kitti"])
    def test_dataset_string_or_absent(self, tmp_path, value):
        # an omitted or null dataset is "", and dump writes it back as that
        p = self.write_minimal(tmp_path)
        assert SequenceManifest.load(p).dataset == ""
        doc = yaml.safe_load(p.read_text())
        doc["dataset"] = value
        p.write_text(yaml.safe_dump(doc))
        m = SequenceManifest.load(p)
        assert m.dataset == (value or "")
        m.dump(tmp_path / "copy.yaml")
        assert SequenceManifest.load(tmp_path / "copy.yaml").dataset == m.dataset

    @pytest.mark.parametrize("value", [5, 0, False, True, 1.5, [1, 2], {"a": 1}])
    def test_dataset_not_a_string_rejected(self, tmp_path, value):
        p = self.write_minimal(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["dataset"] = value
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ManifestError,
                           match=f"^{re.escape(f'{p}: dataset must be a string, got {value!r}')}$"):
            SequenceManifest.load(p)


def _loaders():
    c = [pytest.param("c", marks=pytest.mark.skipif(
        not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"))]
    return c + ["python"]


@pytest.fixture(params=_loaders())
def loader(request, monkeypatch):
    """(the loader ``yaml.load`` should get, the loaders it got), with
    libyaml's loader removed from PyYAML for the "python" case."""
    if request.param == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used = []
    real_load = yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return real_load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    want = yaml.SafeLoader if request.param == "python" else yaml.CSafeLoader
    yield want, used


class TestManifestLoaders:
    """The manifest parses with libyaml's CSafeLoader when PyYAML has it and
    with the pure-Python SafeLoader otherwise; both give the same manifest."""

    def generated(self, tmp_path) -> SequenceManifest:
        frames = []
        for k in range(0, 60, 3):
            depth, dets, motion = (tmp_path / f"{c}{k}.txt" for c in "dtm")
            for p in (depth, dets, motion):
                p.write_text("")
            frames.append(FrameEntry(k, depth, dets, motion if k % 2 else None))
        intr = CameraIntrinsics(f_u=1001.5, f_v=999.25, p_u=640.5, p_v=360.0,
                                width=1280, height=720)
        return SequenceManifest(intr, frames, fps=29.97, dataset="synthetic: crowded")

    def test_same_manifest(self, tmp_path, loader):
        want_loader, used = loader
        m = self.generated(tmp_path)
        m.dump(tmp_path / "manifest.yaml")
        assert SequenceManifest.load(tmp_path / "manifest.yaml") == m
        assert used == [want_loader]

    @pytest.mark.parametrize(
        "text", ["intrinsics: [1, 2\n", "frames:\n  - {frame: 0\n", "a: b: c\n"]
    )
    def test_malformed_yaml(self, tmp_path, loader, text):
        p = tmp_path / "manifest.yaml"
        p.write_text(text)
        with pytest.raises(ManifestError):
            SequenceManifest.load(p)

    def test_syntax_error_names_the_file(self, tmp_path, loader):
        p = tmp_path / "manifest.yaml"
        p.write_text("intrinsics: [\n")
        with pytest.raises(ManifestError) as e:
            SequenceManifest.load(p)
        assert f'in "{p}", line 2' in str(e.value)
        assert "<unicode string>" not in str(e.value)


README = Path(__file__).resolve().parent.parent / "README.md"


class TestSpecLoaders:
    """A scene spec is read by the manifest's loader: the same document,
    and a syntax error worded as for a manifest."""

    def test_readme_spec(self, tmp_path, loader):
        want_loader, used = loader
        text = README.read_text().split("with a scene spec like:\n\n```yaml\n", 1)[1].split("```", 1)[0]
        (tmp_path / "scene.yaml").write_text(text)
        potholes = (synth.PotholeSpec(center=(0.0, 0.0), a=0.3, b=0.2, depth=0.02),)
        assert synth.load_scene_spec(tmp_path / "scene.yaml") == synth.SceneSpec(
            intrinsics=CameraIntrinsics(f_u=1000.0, f_v=1000.0, p_u=960.0, p_v=540.0,
                                        width=1920, height=1080),
            surface=synth.Surface(kind="tilted", z0=6.0, pitch_deg=4.0, potholes=potholes),
            frames=10,
            camera_path=(synth.CameraPose(position=(0.0, 0.0, 0.0)),
                         synth.CameraPose(position=(0.0, 0.0, 0.15))),
            noise=synth.NoiseSpec(box_jitter_px=0.6, depth_rel_std=0.004, conf_noise_std=0.02),
            seed=0,
        )
        assert used == [want_loader]

    def test_syntax_error_worded_as_for_a_manifest(self, tmp_path, loader):
        p = tmp_path / "bad.yaml"
        p.write_text("intrinsics: [\n")
        runner = CliRunner()
        synth_res = runner.invoke(main, ["synth", "--spec", str(p), "--out", str(tmp_path / "out")])
        estimate_res = runner.invoke(main, ["estimate", "--manifest", str(p)])
        assert synth_res.exit_code == estimate_res.exit_code == 1
        assert synth_res.output.startswith(f"error: {p}: ")
        assert synth_res.output == estimate_res.output
