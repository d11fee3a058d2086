import json
import re
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcmot import formats
from mcmot.config import (
    PRESETS,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    study1_preset,
    study2_preset,
)
from mcmot.formats import EmbeddingColumns, FormatError
from mcmot.geometry import BoundingBox, CameraStream, Detection
from mcmot.sim import ConfigError, ScenarioConfig, generate, to_json
from mcmot.tracker import Tracklet, TrackerConfig


def columns(rows, embeddings=None) -> CameraStream:
    """A stream from (frame, det_id, (x, y, w, h), confidence, class_id) rows."""
    return CameraStream(
        frame=np.array([r[0] for r in rows], dtype=np.int64),
        det_id=np.array([r[1] for r in rows], dtype=np.int64),
        box=np.array([r[2] for r in rows], dtype=np.float64).reshape(-1, 4),
        confidence=np.array([r[3] for r in rows], dtype=np.float64),
        class_id=np.array([r[4] for r in rows], dtype=np.int64),
        embeddings=embeddings,
    )


def keyed_stream(keyed, dim) -> CameraStream:
    """A stream whose embeddings are the vectors of (frame, det_id, vector) rows."""
    vectors = np.array([k[2] for k in keyed], dtype=np.float64).reshape(len(keyed), dim)
    return columns([(f, d, (0, 0, 1, 1), 0.5, 0) for f, d, _ in keyed], vectors)


def embedding_columns(keyed, dim=2) -> EmbeddingColumns:
    """Embedding columns from (frame, det_id, vector) rows."""
    return EmbeddingColumns(
        frame=np.array([k[0] for k in keyed], dtype=np.int64),
        det_id=np.array([k[1] for k in keyed], dtype=np.int64),
        vectors=np.array([k[2] for k in keyed], dtype=np.float64).reshape(len(keyed), dim),
    )


def assert_columns_equal(got: CameraStream, want: CameraStream) -> None:
    for name in ("frame", "det_id", "box", "confidence", "class_id"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def sample_records():
    return columns([
        (0, 0, (1.5, 2.25, 30.0, 60.0), 0.875, 0),
        (0, 1, (100.0, 50.0, 25.5, 55.125), 0.5, 0),
        (2, 0, (3.0, 4.0, 10.0, 20.0), 0.999999999, 1),
    ])


class TestDetectionFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dets.csv"
        records = sample_records()
        formats.write_detections(path, records)
        assert_columns_equal(formats.read_detections(path), records)
        # Serialize(parse(file)) reproduces the file byte for byte.
        text = path.read_text()
        formats.write_detections(path, formats.read_detections(path))
        assert path.read_text() == text

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        rows = []
        for f in range(50):
            for d in range(3):
                rows.append(
                    (
                        f,
                        d,
                        (*rng.uniform(0.01, 2000, 2), *rng.uniform(0.1, 500, 2)),
                        float(rng.uniform(0, 1)),
                        int(rng.integers(0, 3)),
                    )
                )
        path = tmp_path / "dets.csv"
        formats.write_detections(path, columns(rows))
        got = formats.read_detections(path)
        text = path.read_text()
        formats.write_detections(path, got)
        assert path.read_text() == text

    def test_from_detections_numbers_det_ids_per_frame(self):
        box = BoundingBox(1.0, 2.0, 3.0, 4.0)
        dets = [Detection(f, box, 0.5) for f in (0, 0, 0, 3, 3, 7)]
        got = CameraStream.from_detections(dets)
        assert got.det_id.tolist() == [0, 1, 2, 0, 1, 0]
        assert got.box.shape == (6, 4)
        assert len(CameraStream.from_detections([])) == 0
        # Numbered in stream order within each frame, whatever the frame order.
        dets = [Detection(f, box, 0.5) for f in (3, 0, 3, 0, 7)]
        assert CameraStream.from_detections(dets).det_id.tolist() == [0, 0, 1, 1, 0]

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,header\n")
        with pytest.raises(FormatError):
            formats.read_detections(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,0,1,2,3,4,0.5,0\n0,1,oops,2,3,4,0.5,0\n")
        with pytest.raises(FormatError, match=":3:"):
            formats.read_detections(path)

    def test_confidence_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,0,1,2,3,4,1.5,0\n")
        with pytest.raises(FormatError, match="confidence"):
            formats.read_detections(path)

    def test_unsorted_frames_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n5,0,1,2,3,4,0.5,0\n4,0,1,2,3,4,0.5,0\n")
        with pytest.raises(FormatError, match="sorted"):
            formats.read_detections(path)

    def test_non_positive_size_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,0,1,2,0,4,0.5,0\n")
        with pytest.raises(FormatError, match="size"):
            formats.read_detections(path)

    def test_box_area_underflow_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER
                        + "\n0,0,1,2,3,4,0.5,0\n0,1,0.0,0.0,1e-200,1e-200,0.5,0\n")
        with pytest.raises(FormatError, match=r":3: box size 1e-200x1e-200 has zero area in "
                                              r"float64: w \* h == 0$"):
            formats.read_detections(path)
        # An area of 1e-300 is representable: ingest accepts it.
        path.write_text(formats.DETECTION_HEADER + "\n0,0,0.0,0.0,1e-130,1e-170,0.5,0\n")
        assert formats.read_detections(path).box.tolist() == [[0.0, 0.0, 1e-130, 1e-170]]

    @pytest.mark.parametrize("box", ["1e151,2,1e140,4", "1,-2e150,3,1e140", "1,2,1e200,1e200",
                                     "0,0,1e150,1e-1", "0,0,1e-160,1"])
    def test_box_out_of_range_rejected(self, tmp_path, box):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + f"\n0,0,1,2,3,4,0.5,0\n0,1,{box},0.5,0\n")
        with pytest.raises(FormatError, match=r":3: box \(.*\) out of range: .* at most 1e\+150"):
            formats.read_detections(path)
        path.write_text(formats.DETECTION_HEADER + "\n0,0,1e150,-1e150,1e150,1e150,0.5,0\n")
        assert formats.read_detections(path).box.tolist() == [[1e150, -1e150, 1e150, 1e150]]

    @pytest.mark.parametrize("field, value", [(2, "nan"), (5, "inf"), (6, "nan"), (4, "-inf")])
    def test_non_finite_rejected(self, tmp_path, field, value):
        row = "0,0,1,2,3,4,0.5,0".split(",")
        row[field] = value
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,1,1,2,3,4,0.5,0\n\n" + ",".join(row) + "\n")
        with pytest.raises(FormatError, match=r"bad\.csv:4: non-finite"):
            formats.read_detections(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinities_rejected_without_a_warning(self, tmp_path):
        # x + w and w * h are NaN here; numpy once warned about them before
        # the error line.
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,0,inf,0,-inf,0,0.5,0\n")
        with pytest.raises(FormatError, match=r"bad\.csv:2: non-finite box or confidence$"):
            formats.read_detections(path)

    @pytest.mark.parametrize("key", ["0.0", "1_0", "1e3", " ", "#1"])
    def test_keys_must_be_integer_literals(self, tmp_path, key):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + f"\n0,0,1,2,3,4,0.5,0\n{key},1,1,2,3,4,0.5,0\n")
        with pytest.raises(FormatError, match=r":3: cannot parse .* as an integer"):
            formats.read_detections(path)

    def test_whitespace_only_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,0,1,2,3,4,0.5,0\n\n  \n")
        with pytest.raises(FormatError, match=":4: expected 8 fields, got 1"):
            formats.read_detections(path)

    def test_first_bad_row_wins_across_checks(self, tmp_path):
        # A range error on line 2 is reported before the parse error on line 3.
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n0,0,1,2,3,4,1.5,0\n0,1,oops,2,3,4,0.5,0\n")
        with pytest.raises(FormatError, match=":2: confidence"):
            formats.read_detections(path)
        # Within one row, the checks apply in order: range, size, order, key.
        path.write_text(formats.DETECTION_HEADER + "\n5,0,1,2,3,4,0.5,0\n4,0,1,2,0,4,1.5,0\n")
        with pytest.raises(FormatError, match=":3: confidence"):
            formats.read_detections(path)

    def test_empty_body_and_blank_lines(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text(formats.DETECTION_HEADER + "\n")
        assert len(formats.read_detections(path)) == 0
        path.write_bytes((formats.DETECTION_HEADER + "\r\n\r\n0,0,1,2,3,4,0.5,0\r\n").encode())
        assert formats.read_detections(path).frame.tolist() == [0]


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_every_row_read_whatever_ends_the_lines(self, tmp_path, newline, monkeypatch):
        # np.loadtxt is given a bound on the rows, so the bound must count
        # every line ending that np.loadtxt reads as one.
        rows = [f"{f},0,1.5,2,3,4,0.5,0" for f in range(40)] + ["", "40,1,1,2,3,4,0.5,0"]
        path = tmp_path / "dets.csv"
        path.write_bytes(newline.join([formats.DETECTION_HEADER, *rows]).encode())
        bounds = []
        line_bound = formats._line_bound
        monkeypatch.setattr(formats, "_line_bound",
                            lambda p: bounds.append(line_bound(p)) or bounds[-1])
        assert formats.read_detections(path).frame.tolist() == list(range(41))
        assert bounds and bounds[0] >= 43


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        keyed = [(f, d, rng.normal(size=8)) for f in range(5) for d in range(2)]
        path = tmp_path / "embs.csv"
        stream = keyed_stream(keyed, dim=8)
        formats.write_embeddings(path, stream, dim=8)
        got = formats.read_embeddings(path)
        keys = list(zip(got.frame.tolist(), got.det_id.tolist()))
        assert set(keys) == {(f, d) for f, d, _ in keyed}
        assert got.vectors.shape == (10, 8)
        text = path.read_text()
        merged = replace(stream, embeddings=formats.merge_embeddings(stream, got))
        formats.write_embeddings(path, merged, dim=8)
        assert path.read_text() == text

    def test_vectors_view_the_parse_buffer(self, tmp_path, monkeypatch):
        # The matrix is not copied out of the parsed records: the file is
        # held in memory once.
        buffers = []

        def loadtxt(*args, _loadtxt=formats._loadtxt, **kwargs):
            buffers.append(_loadtxt(*args, **kwargs))
            return buffers[-1]

        monkeypatch.setattr(formats, "_loadtxt", loadtxt)
        keyed = [(f, 0, np.full(6, f + 0.5)) for f in range(4)]
        path = tmp_path / "embs.csv"
        formats.write_embeddings(path, keyed_stream(keyed, dim=6), dim=6)
        got = formats.read_embeddings(path)
        assert len(buffers) == 1
        for column in (got.frame, got.det_id, got.vectors):
            assert np.shares_memory(column, buffers[0])
        assert got.vectors.tolist() == [[f + 0.5] * 6 for f in range(4)]

    def test_header_declares_dimension(self, tmp_path):
        path = tmp_path / "embs.csv"
        formats.write_embeddings(path, keyed_stream([(0, 0, np.zeros(4))], dim=4), dim=4)
        assert path.read_text().splitlines()[0] == "frame,det_id,e0,e1,e2,e3"
        got = formats.read_embeddings(path)
        assert got.vectors.shape == (1, 4)
        assert (got.frame.tolist(), got.det_id.tolist()) == ([0], [0])

    def test_empty_stream_keeps_dimension(self, tmp_path):
        # A camera without detections has no embeddings to take D from.
        path = tmp_path / "embs.csv"
        empty = CameraStream.from_detections([])
        assert empty.embeddings is None
        formats.write_embeddings(path, empty, dim=3)
        assert path.read_text() == "frame,det_id,e0,e1,e2\n"
        assert formats.read_embeddings(path).vectors.shape == (0, 3)

    def test_matrix_shape_checked(self, tmp_path):
        path = tmp_path / "embs.csv"
        with pytest.raises(FormatError, match=r"\(1, 4\) embedding matrix, got \(1, 3\)"):
            formats.write_embeddings(path, keyed_stream([(0, 0, np.zeros(3))], dim=3), dim=4)
        with pytest.raises(FormatError, match="got None"):
            formats.write_embeddings(path, columns([(0, 0, (0, 0, 1, 1), 0.5, 0)]), dim=4)

    def test_wrong_length_row_rejected(self, tmp_path):
        path = tmp_path / "embs.csv"
        path.write_text("frame,det_id,e0,e1\n0,0,1.0\n")
        with pytest.raises(FormatError, match=":2:"):
            formats.read_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "embs.csv"
        path.write_text("frame,det_id,e0,e1\n0,0,1.0,2.0\n0,1,1.0,nan\n")
        with pytest.raises(FormatError, match=r"embs\.csv:3: non-finite"):
            formats.read_embeddings(path)

    def test_merge_key_mismatch_lists_first_offender(self):
        records = columns([(0, 0, (0, 0, 1, 1), 0.5, 0)])
        with pytest.raises(FormatError, match=r"frame=0, det_id=0"):
            formats.merge_embeddings(records, embedding_columns([]))
        with pytest.raises(FormatError, match=r"frame=3, det_id=1"):
            formats.merge_embeddings(
                records,
                embedding_columns([(4, 0, np.zeros(2)), (0, 0, np.zeros(2)), (3, 1, np.zeros(2))]),
            )

    def test_merge_attaches_embeddings(self):
        records = columns([(0, 0, (0, 0, 1, 1), 0.5, 0)])
        embs = formats.merge_embeddings(records, embedding_columns([(0, 0, np.array([1.0, 0.0]))]))
        assert isinstance(embs, np.ndarray) and embs.shape == (1, 2)
        np.testing.assert_array_equal(embs[0], [1.0, 0.0])
        assert formats.merge_embeddings(records, None) is None

    def test_merge_joins_rows_in_any_order(self):
        records = columns([(f, d, (0, 0, 1, 1), 0.5, 0) for f, d in [(0, 1), (0, 0), (2, 5)]])
        embeddings = embedding_columns([(2, 5, [3.0]), (0, 0, [1.0]), (0, 1, [2.0])], dim=1)
        assert formats.merge_embeddings(records, embeddings).tolist() == [[2.0], [1.0], [3.0]]
        # Rows already in detection order: the file's own matrix, not a copy.
        in_order = embedding_columns([(0, 1, [2.0]), (0, 0, [1.0]), (2, 5, [3.0])], dim=1)
        assert formats.merge_embeddings(records, in_order) is in_order.vectors


# ----------------------------------------------------------------------
# Ingest oracle: the line-by-line readers the columnar ones replaced, kept as
# the reference. One rule is tightened to match the documented format: keys
# must be integer literals (int() alone also takes "1_0" and " ٣"). The
# embedding rules (finite values within 1e100) are checked per row, as the
# box rules are.


@dataclass(frozen=True)
class RefRecord:
    frame: int
    det_id: int
    box: BoundingBox
    confidence: float
    class_id: int


def ref_int(text: str) -> int:
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def ref_read_detections(path) -> list[RefRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != formats.DETECTION_HEADER:
        raise FormatError(f"{path}:1: expected header '{formats.DETECTION_HEADER}'")
    records: list[RefRecord] = []
    seen: set[tuple[int, int]] = set()
    last_frame = None
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise FormatError(f"{path}:{n}: expected 8 fields, got {len(parts)}")
        try:
            frame, det_id = ref_int(parts[0]), ref_int(parts[1])
            x, y, w, h, conf = (float(p) for p in parts[2:7])
            class_id = ref_int(parts[7])
        except ValueError as exc:
            raise FormatError(f"{path}:{n}: {exc}") from exc
        if not 0.0 <= conf <= 1.0:
            raise FormatError(f"{path}:{n}: confidence {conf} outside [0, 1]")
        if w <= 0 or h <= 0:
            raise FormatError(f"{path}:{n}: non-positive box size {w}x{h}")
        if x + w <= x or y + h <= y:
            raise FormatError(
                f"{path}:{n}: box size {w}x{h} vanishes at ({x}, {y}): x + w == x or y + h == y"
            )
        if w * h == 0:
            raise FormatError(f"{path}:{n}: box size {w}x{h} has zero area in float64: w * h == 0")
        if max(abs(x), abs(y), w, h, w / h, h / w) > 1e150:
            raise FormatError(
                f"{path}:{n}: box ({x}, {y}, {w}, {h}) out of range: "
                "|x|, |y|, w, h, w/h and h/w must be at most 1e+150"
            )
        if last_frame is not None and frame < last_frame:
            raise FormatError(f"{path}:{n}: frames must be sorted ascending")
        if (frame, det_id) in seen:
            raise FormatError(f"{path}:{n}: duplicate key (frame={frame}, det_id={det_id})")
        seen.add((frame, det_id))
        last_frame = frame
        records.append(RefRecord(frame, det_id, BoundingBox(x, y, w, h), conf, class_id))
    return records


def ref_read_embeddings(path) -> dict[tuple[int, int], np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("frame,det_id,"):
        raise FormatError(f"{path}:1: expected header 'frame,det_id,e0,...'")
    cols = lines[0].split(",")[2:]
    if cols != [f"e{i}" for i in range(len(cols))] or not cols:
        raise FormatError(f"{path}:1: embedding columns must be e0..e{{D-1}}")
    dim = len(cols)
    out: dict[tuple[int, int], np.ndarray] = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise FormatError(f"{path}:{n}: expected {dim + 2} fields, got {len(parts)}")
        try:
            key = (ref_int(parts[0]), ref_int(parts[1]))
            vec = np.array(parts[2:], dtype=float)
        except ValueError as exc:
            raise FormatError(f"{path}:{n}: {exc}") from exc
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}:{n}: non-finite embedding value")
        if np.any(np.abs(vec) > 1e100):
            raise FormatError(
                f"{path}:{n}: embedding value {vec[np.abs(vec) > 1e100][0]} out of range: "
                "every embedding value must be within [-1e+100, 1e+100]"
            )
        if key in out:
            raise FormatError(f"{path}:{n}: duplicate key (frame={key[0]}, det_id={key[1]})")
        out[key] = vec
    return out


def ref_merge_embeddings(records, embeddings) -> list[Detection]:
    rec_keys = {(r.frame, r.det_id) for r in records}
    missing = sorted(rec_keys - set(embeddings))
    extra = sorted(set(embeddings) - rec_keys)
    if missing:
        raise FormatError(
            f"detection (frame={missing[0][0]}, det_id={missing[0][1]}) has no embedding"
        )
    if extra:
        raise FormatError(
            f"embedding key (frame={extra[0][0]}, det_id={extra[0][1]}) matches no detection"
        )
    return [
        Detection(r.frame, r.box, r.confidence, r.class_id, embeddings[(r.frame, r.det_id)])
        for r in records
    ]


def read_stream(det_path, emb_path) -> list[Detection]:
    """The columnar readers' rows, as the Detections the reference builds."""
    detections = formats.read_detections(det_path)
    embeddings = formats.merge_embeddings(detections, formats.read_embeddings(emb_path))
    return [
        Detection(frame, BoundingBox(*box), conf, class_id, emb)
        for frame, box, conf, class_id, emb in zip(
            detections.frame.tolist(), detections.box.tolist(), detections.confidence.tolist(),
            detections.class_id.tolist(), embeddings,
        )
    ]


def read_reference(det_path, emb_path) -> list[Detection]:
    return ref_merge_embeddings(ref_read_detections(det_path), ref_read_embeddings(emb_path))


def detection_fields(d: Detection) -> tuple:
    """Every field of a Detection, floats as their bytes."""
    box = np.array([d.box.x, d.box.y, d.box.w, d.box.h])
    return (
        type(d.frame), d.frame, box.tobytes(), np.float64(d.confidence).tobytes(),
        type(d.class_id), d.class_id, d.embedding.tobytes(),
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_TEXT = st.sampled_from([repr, formats.fmt9])
# (coordinate, size) draws for a file's boxes: within the bound on |x|, |y|,
# w, h and the aspect (1e150), or any finite coordinate and positive size,
# which reach past it.
BOX_DRAWS = [(st.floats(-1e150, 1e150), st.floats(1e-70, 1e70)),
             (FINITE, st.floats(min_value=5e-324, max_value=1e300))]
# An embeddings file's values: within the bound (1e100), or any finite value.
EMBEDDING_DRAWS = [st.floats(-1e100, 1e100), FINITE]


@st.composite
def camera_files(draw):
    """A detections file and its embeddings file, as lists of field lists:
    frames ascending, keys unique, embedding rows shuffled. Every box keeps
    its extent and a nonzero area; half of the files draw boxes that may
    break the bound, and half, independently, embeddings that may."""
    coordinate, size = draw(st.sampled_from(BOX_DRAWS))
    value = draw(st.sampled_from(EMBEDDING_DRAWS))
    dim = draw(st.integers(1, 4))
    frames = sorted(draw(st.lists(st.integers(-3, 40), max_size=12)))
    det_rows, emb_rows = [], []
    for frame in sorted(set(frames)):
        k = frames.count(frame)
        for det_id in draw(st.lists(st.integers(0, 50), min_size=k, max_size=k, unique=True)):
            text = draw(FLOAT_TEXT)
            box = [draw(coordinate), draw(coordinate), draw(size), draw(size)]
            for pos in (0, 1):  # keep x + w > x and y + h > y as parsed
                if float(text(box[pos])) + float(text(box[pos + 2])) <= float(text(box[pos])):
                    box[pos] = 0.0
            if float(text(box[2])) * float(text(box[3])) == 0:  # and w * h > 0
                box[3] = 1.0
            det_rows.append(
                [str(frame), str(det_id), *map(text, box),
                 text(draw(st.floats(0.0, 1.0))), str(draw(st.integers(0, 3)))]
            )
            vec = draw(st.lists(value, min_size=dim, max_size=dim))
            emb_rows.append([str(frame), str(det_id), *map(text, vec)])
    emb_rows = draw(st.permutations(emb_rows))
    return dim, det_rows, emb_rows


def render(draw, header: str, rows: list[list[str]]) -> str:
    """CSV text with empty lines drawn in between rows."""
    lines = [header]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_both(draw, dim: int, det_rows, emb_rows) -> list:
    """Write a camera's two files, then read and join them with the new and
    the reference readers: [new, reference] outcomes, each the Detection
    fields or the FormatError raised."""
    emb_header = "frame,det_id," + ",".join(f"e{i}" for i in range(dim))
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        det_path, emb_path = Path(tmp) / "dets.csv", Path(tmp) / "embs.csv"
        det_path.write_text(render(draw, formats.DETECTION_HEADER, det_rows))
        emb_path.write_text(render(draw, emb_header, emb_rows))
        for read in (read_stream, read_reference):
            try:
                outcomes.append([detection_fields(d) for d in read(det_path, emb_path)])
            except FormatError as exc:
                outcomes.append(exc)
    return outcomes


def error_location(exc: FormatError) -> str:
    """'path:line' of an error message, or the whole message if it has none."""
    match = re.match(r"(.*?:\d+): ", str(exc))
    return match.group(1) if match else str(exc)


MUTATIONS = ["fields", "int_key", "duplicate", "unsorted", "confidence", "size", "vanish",
             "area", "range", "emb_fields", "emb_int_key", "emb_duplicate", "emb_range",
             "missing", "extra"]


class TestIngestOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), camera_files())
    def test_canonical_files_parse_bit_identically(self, data, files):
        new, ref = read_both(data.draw, *files)
        if isinstance(ref, FormatError):  # a box past the bound, at the same line
            assert "out of range" in str(ref) and str(new) == str(ref), (new, ref)
        else:
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(st.data(), camera_files(), st.sampled_from(MUTATIONS))
    def test_mutated_files_fail_at_the_same_line(self, data, files, mutation):
        dim, det_rows, emb_rows = files
        draw = data.draw
        rows = emb_rows if mutation.startswith("emb_") or mutation == "extra" else det_rows
        need = 2 if mutation in ("duplicate", "unsorted", "emb_duplicate") else 1
        assume(len(rows) >= need or mutation == "extra")
        k = draw(st.integers(need - 1, len(rows) - 1)) if rows else 0
        if mutation in ("fields", "emb_fields"):
            rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + ["0"]
        elif mutation in ("int_key", "emb_int_key"):
            rows[k][draw(st.integers(0, 1))] = draw(st.sampled_from(["0.0", "1_0"]))
        elif mutation == "duplicate":
            rows[k][:2] = rows[k - 1][:2]
        elif mutation == "emb_duplicate":
            rows[k][:2] = rows[draw(st.integers(0, len(rows) - 1).filter(lambda j: j != k))][:2]
        elif mutation == "unsorted":
            rows[k][0] = str(int(rows[k - 1][0]) - 1)
        elif mutation == "confidence":
            rows[k][6] = draw(st.sampled_from(["1.5", "-0.25", "1.0000001"]))
        elif mutation == "size":
            rows[k][draw(st.integers(4, 5))] = draw(st.sampled_from(["0", "-3.5", "-0.0"]))
        elif mutation == "vanish":
            rows[k][2:6] = draw(st.sampled_from([["1000.0", "0", "1e-14", "5"],
                                                 ["0", "-1e300", "7", "1e-290"]]))
        elif mutation == "area":  # the second is also past the aspect bound
            rows[k][2:6] = draw(st.sampled_from([["0.0", "0.0", "1e-200", "1e-200"],
                                                 ["0", "5e-324", "1e-300", "1e-30"]]))
        elif mutation == "range":
            rows[k][2:6] = draw(st.sampled_from([["0", "0", "1e200", "1e200"],
                                                 ["-2e150", "0", "1e140", "1"],
                                                 ["0", "0", "1e150", "1e-300"]]))
        elif mutation == "emb_range":
            rows[k][2 + draw(st.integers(0, dim - 1))] = draw(st.sampled_from(
                ["1.0000000000000002e+100", "-1e300", "nan", "-inf"]))
        elif mutation == "missing":
            del emb_rows[draw(st.integers(0, len(emb_rows) - 1))]
        elif mutation == "extra":
            emb_rows.append(["41", "0", *["0.5"] * dim])
        new, ref = read_both(draw, dim, det_rows, emb_rows)
        assert isinstance(ref, FormatError) and isinstance(new, FormatError), (new, ref)
        assert error_location(new) == error_location(ref)
        if "int_key" not in mutation:  # the reference words integer errors its own way
            assert str(new) == str(ref)


def make_tracklet(camera_id=0, track_id=1, n=5, with_embeddings=True):
    rng = np.random.default_rng(camera_id * 100 + track_id)
    embs = [rng.normal(size=6) for _ in range(n)] if with_embeddings else []
    return Tracklet(
        camera_id=camera_id,
        track_id=track_id,
        frames=list(range(n)),
        boxes=[(float(i), 2.0, 30.0, 60.0) for i in range(n)],
        confidences=[0.75 + 0.01 * i for i in range(n)],
        embedding=np.mean(np.asarray(embs), axis=0) if with_embeddings else None,
    )


class TestTrackFiles:
    def test_tracks_csv(self, tmp_path):
        path = tmp_path / "tracks.csv"
        formats.write_tracks_csv(path, [make_tracklet(track_id=2), make_tracklet(track_id=1)])
        lines = path.read_text().splitlines()
        assert lines[0] == formats.TRACK_HEADER
        assert len(lines) == 11
        # Rows sorted by (frame, track_id).
        keys = [tuple(map(float, l.split(",")[:2])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_empty_tracks_csv_has_header(self, tmp_path):
        path = tmp_path / "tracks.csv"
        formats.write_tracks_csv(path, [])
        assert path.read_text() == formats.TRACK_HEADER + "\n"

    def test_tracklets_json_round_trip(self, tmp_path):
        path = tmp_path / "cam0.tracklets.json"
        tls = [make_tracklet(track_id=1), make_tracklet(track_id=2, with_embeddings=False)]
        formats.write_tracklets_json(path, 0, tls)
        camera_id, got = formats.read_tracklets_json(path)
        assert camera_id == 0
        assert [t.track_id for t in got] == [1, 2]
        assert got[0].embedding is not None
        assert got[1].embedding is None
        assert got[0].frames.tolist() == tls[0].frames.tolist()
        # Pooled embedding matches the mean of the original embeddings at
        # 9-significant-digit precision.
        np.testing.assert_allclose(got[0].embedding, tls[0].embedding, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize(
        "pooled", ['[]', '[[1.0, 2.0]]', '"abc"', '[true, 1.0]', '[1.0, null]', '{}', '1.5'],
    )
    def test_mean_embedding_must_be_flat_number_list(self, tmp_path, pooled):
        path = tmp_path / "cam0.tracklets.json"
        path.write_text(
            '{"camera_id": 0, "tracklets": [{"track_id": 3, "frames": [0], '
            '"boxes": [[0, 0, 5, 5]], "confidences": [0.9], "mean_embedding": ' + pooled + "}]}"
        )
        with pytest.raises(FormatError, match=r"track 3: mean_embedding must be"):
            formats.read_tracklets_json(path)

    def test_sidecar_path(self):
        assert formats.tracklet_sidecar_path("/a/b/cam0.csv").name == "cam0.tracklets.json"


class TestTruthFile:
    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(seed=63, cameras=2, identities=3, frames=10, embedding_dim=8)
        truth, _ = generate(cfg)
        path = tmp_path / "truth.json"
        formats.write_truth_json(path, truth)
        got = formats.read_truth_json(path)
        assert got.identity_count == 3
        assert set(got.cameras) == {0, 1}
        assert got.embeddings.shape == (3, 8)
        assert len(got.cameras[0]) == 10
        first = got.cameras[0][0]
        want = truth.boxes[0][0]
        assert [i for i, _ in first] == [i for i, _ in want]


class TestResultsFile:
    def test_round_trip_and_invariant(self, tmp_path):
        from mcmot.association import Cluster

        camera_tracklets = {0: [make_tracklet(0, 1)], 1: [make_tracklet(1, 1)]}
        clusters = [Cluster(global_id=1, members=[(0, 1), (1, 1)])]
        doc = formats.results_doc(camera_tracklets, clusters, {"euclidean": 1}, 20)
        path = tmp_path / "results.json"
        formats.write_results_json(path, doc)
        got = formats.read_results_json(path)
        assert got.unique_count == 1
        assert got.clusters[0].members == [(0, 1), (1, 1)]
        assert got.method_counts == {"euclidean": 1}
        assert set(got.camera_tracklets) == {0, 1}

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "cameras": [],
            "clusters": [],
            "unique_count": 3,
            "method_counts": None,
            "count_report": None,
            "timing": {"frames_processed": 0, "cameras": 0},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unique_count"):
            formats.read_results_json(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(0.0, 1e300) | st.integers(0, 10**6)
POSITIVE_INT = st.integers(1, 10**6) | st.integers(1, 2**63 - 1)
# Valid values of every PipelineConfig field, by section.
SECTION_FIELDS = {
    "tracker": {
        "min_confidence": FINITE, "nms_threshold": st.floats(0.0, 1.0),
        "max_age": POSITIVE_INT, "n_init": POSITIVE_INT,
        "nn_budget": POSITIVE_INT | st.integers(2**63, 10**30),
        "max_appearance_distance": FINITE, "max_iou_distance": FINITE,
        "appearance_metric": st.sampled_from(["euclidean", "cosine"]),
        "frame_stride": POSITIVE_INT, "single_shot_matching": st.booleans(),
    },
    "refine": {
        "min_width": NON_NEGATIVE, "min_height": NON_NEGATIVE,
        "min_track_length": st.integers(0, 10**6), "min_mean_confidence": NON_NEGATIVE,
    },
    "association": {
        "method": st.sampled_from(["euclidean", "euclidean_voting"]),
        "threshold": st.floats(1e-300, 1e300), "intra_first": st.booleans(),
    },
}
TOP_FIELDS = {
    "detection_threshold": FINITE,
    "export_confidence": FINITE,
    "frame_keep": st.none() | POSITIVE_INT.flatmap(
        lambda block: st.tuples(st.integers(1, block), st.just(block))),
}


class TestPresets:
    def test_study1_values(self):
        cfg = study1_preset()
        assert cfg.detection_threshold == 0.3
        assert cfg.export_confidence == 0.6
        assert cfg.tracker.nms_threshold == 0.4
        assert cfg.tracker.max_age == 180
        assert cfg.frame_keep == (270, 300)

    def test_study2_values(self):
        cfg = study2_preset()
        t = cfg.tracker
        assert t.max_age == 250
        assert t.nn_budget == 100
        assert t.appearance_metric == "euclidean"
        assert t.min_confidence == 0.65
        assert t.max_appearance_distance == 0.05
        assert t.frame_stride == 4
        assert cfg.detection_threshold == 0.25
        assert cfg.refine.min_width == 60
        assert cfg.refine.min_height == 50
        assert cfg.refine.min_mean_confidence == 0.65

    def test_round_trip_every_preset(self):
        for name, builder in PRESETS.items():
            cfg = builder()
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="zz_bogus"):
            config_from_dict({"zz_bogus": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="maxage"):
            config_from_dict({"tracker": {"maxage": 10}})

    def test_preset_base_with_overrides(self):
        cfg = config_from_dict({"preset": "study2", "tracker": {"frame_stride": 2}})
        assert cfg.tracker.frame_stride == 2
        assert cfg.tracker.max_age == 250

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="study9"):
            config_from_dict({"preset": "study9"})

    def test_load_config_accepts_preset_name_and_file(self, tmp_path):
        assert load_config("study1") == study1_preset()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(study2_preset())))
        assert load_config(path) == study2_preset()
        with pytest.raises(ConfigError):
            load_config("no_such_preset_or_file")

    @pytest.mark.parametrize(
        "doc",
        [
            {"tracker": {"max_age": True}},
            {"tracker": {"nms_threshold": "0.5"}},
            {"tracker": {"appearance_metric": 1}},
            {"association": {"intra_first": 1}},
            {"association": {"threshold": float("nan")}},
            {"detection_threshold": "0.3"},
            {"frame_keep": [270, 300.0]},
            {"frame_keep": {"keep": 1}},
            {"frame_keep": [1, True]},
            {"frame_keep": [1, "300"]},
            {"frame_keep": [1, 2, 3]},
            {"frame_keep": [270]},
            {"tracker": [1, 2]},
            {"refine": 5},
            {"association": "euclidean"},
            {"preset": ["study1"]},
        ],
    )
    def test_field_types_checked(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"frame_keep": [1, True]}, "frame_keep[1] must be an integer, got True"),
            ({"frame_keep": [1, 2, 3]}, "frame_keep must be a list of 2 items, got [1, 2, 3]"),
            ({"tracker": [1, 2]}, "tracker must be a JSON object"),
            ({"zz_bogus": 1}, "unknown key 'zz_bogus' in config"),
            ({"refine": {"min_hight": 1}}, "unknown key 'min_hight' in refine"),
        ],
    )
    def test_field_errors_name_the_field(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    def test_null_section_keeps_the_preset_section(self):
        cfg = config_from_dict({"preset": "study2", "tracker": None, "refine": {}})
        assert cfg == study2_preset()

    def test_frame_rules_bounded_by_int64(self):
        # Frames are int64; nn_budget is only compared with counts.
        cfg = config_from_dict({"tracker": {"frame_stride": 2**63 - 1, "nn_budget": 10**400},
                                "frame_keep": [2**63 - 1, 2**63 - 1]})
        assert cfg.tracker.frame_stride == cfg.frame_keep[1] == 2**63 - 1
        with pytest.raises(ValueError, match=re.escape("frame_stride must be at most 2**63 - 1")):
            TrackerConfig(frame_stride=2**63)
        with pytest.raises(ConfigError, match=re.escape(f"block <= 2**63 - 1, got (1, {2**63})")):
            PipelineConfig(frame_keep=(1, 2**63))

    @settings(max_examples=150, deadline=None)
    @given(preset=st.sampled_from(sorted(PRESETS)), data=st.data())
    def test_json_round_trip(self, tmp_path_factory, preset, data):
        # Every field overridden or not, at values its checks accept: the
        # written document reads back equal, alone and as preset overrides.
        base = PRESETS[preset]()
        sections = {
            name: replace(getattr(base, name), **data.draw(st.fixed_dictionaries({}, optional=f)))
            for name, f in SECTION_FIELDS.items()
        }
        cfg = replace(base, **sections,
                      **data.draw(st.fixed_dictionaries({}, optional=TOP_FIELDS)))
        doc = to_json(cfg)
        assert json.loads(json.dumps(doc)) == doc  # plain JSON values: lists, not tuples
        path = tmp_path_factory.mktemp("config") / "cfg.json"
        path.write_text(json.dumps(doc))
        assert config_from_dict(formats.read_json(path)) == cfg
        sparse = {key: value for key, value in to_json(cfg).items()
                  if data.draw(st.booleans(), label=f"write {key}")}
        for key in list(sparse):
            if isinstance(sparse[key], dict):
                sparse[key] = {k: v for k, v in sparse[key].items()
                               if data.draw(st.booleans(), label=f"write {key}.{k}")}
        path.write_text(json.dumps(dict(sparse, preset=preset)))
        read = config_from_dict(formats.read_json(path))
        assert read == replace(base, **{
            key: replace(getattr(base, key), **value) if isinstance(value, dict)
            else (tuple(value) if isinstance(value, list) else value)
            for key, value in sparse.items()
        })

    def test_integer_accepted_for_float_field(self):
        cfg = config_from_dict({"association": {"threshold": 1}, "detection_threshold": 0})
        assert cfg.association.threshold == 1.0 and type(cfg.association.threshold) is float
        assert type(cfg.detection_threshold) is float

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"tracker": {"max_age": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({"association": {"method": "bogus"}})
        for nms_threshold in (-0.5, 1.5):
            with pytest.raises(ConfigError, match="invalid tracker config: nms_threshold"):
                config_from_dict({"tracker": {"nms_threshold": nms_threshold}})
