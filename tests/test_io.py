import json
import math
import re
import tempfile
import tracemalloc
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
from mcmot.pipeline import CameraFiles, process_camera
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

    @pytest.mark.parametrize("with_embeddings", [True, False])
    def test_row_selection(self, with_embeddings):
        dets = [Detection(f, BoundingBox(f, 2.0 * f, 3.0, 4.0), 0.5 + f / 20, f % 2,
                          np.array([f, -f], dtype=float) if with_embeddings else None)
                for f in (0, 0, 1, 2, 2, 2)]
        stream = CameraStream.from_detections(dets)
        for rows, want in [(slice(1, 4), [1, 2, 3]), (np.array([5, 0, 5]), [5, 0, 5]),
                           (stream.frame == 2, [3, 4, 5]), (slice(0, 0), [])]:
            got = stream[rows]
            assert isinstance(got, CameraStream) and len(got) == len(want)
            assert_columns_equal(got, CameraStream(
                frame=stream.frame[want], det_id=stream.det_id[want], box=stream.box[want],
                confidence=stream.confidence[want], class_id=stream.class_id[want]))
            assert got.box.shape == (len(want), 4)
            if with_embeddings:
                assert got.embeddings.tobytes() == stream.embeddings[want].tobytes()
            else:
                assert got.embeddings is None
        with pytest.raises(TypeError, match="a slice, an index array or a mask"):
            stream[1]

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

    @pytest.mark.parametrize("n", [64, 500, 3000])
    def test_error_path_parses_in_blocks(self, tmp_path, monkeypatch, n):
        # After the block of rows holding the bad one fails to parse (here the
        # file's one block, read from the open file), the lines are parsed in
        # blocks, then the failing block's lines one at a time up to the bad
        # one, then the bad line's fields one at a time: at most blocks +
        # block size + 8 hand-offs, where one per line would be n.
        rows = [f"{f},0,1,2,3,4,0.5,0" for f in range(n - 1)] + [f"{n - 1},x,1,2,3,4,0.5,0"]
        path = tmp_path / "bad.csv"
        path.write_text(formats.DETECTION_HEADER + "\n" + "\n".join(rows) + "\n")
        handed = []

        def loadtxt(source, *args, _loadtxt=formats._loadtxt, **kwargs):
            handed.append(source)
            return _loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(formats, "_loadtxt", loadtxt)
        with pytest.raises(FormatError, match=f":{n + 1}: cannot parse 'x' as an integer$"):
            formats.read_detections(path)
        whole, *pieces = handed
        assert n < formats._block_rows(formats._DETECTION_DTYPE)
        assert whole.name == str(path) and all(isinstance(piece, list) for piece in pieces)
        block = formats._ERROR_BLOCK
        blocks = -(-n // block)
        assert [line for piece in pieces[:blocks] for line in piece] == rows
        last = (blocks - 1) * block  # the failing block's first line
        assert pieces[blocks:blocks + n - last] == [[line] for line in rows[last:]]
        assert len(pieces) <= blocks + block + 8  # the bad line's 8 fields

    @pytest.mark.parametrize("read, header, bad", [
        (formats.read_detections, formats.DETECTION_HEADER, "0,x,1,2,3,4,0.5,0"),
        (formats.read_embeddings, "frame,det_id,e0,e1", "0,0,0.5"),
    ], ids=["detections", "embeddings"])
    def test_bad_first_row_after_a_blank_line(self, tmp_path, read, header, bad):
        # No row above the bad one: the checks run on an empty prefix.
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n\n{bad}\n")
        expected = "cannot parse 'x' as an integer" if "x" in bad else "expected 4 fields, got 3"
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: {expected}$"):
            read(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad, expected", [
        ("{f},x,1,2,3,4,0.5,0", "cannot parse 'x' as an integer"),
        ("{f},0,1,2,3,4,1.5,0", "confidence 1.5 outside [0, 1]"),
    ], ids=["unparsable", "checked"])
    def test_line_numbers_in_later_blocks(self, tmp_path, end, bad, expected):
        # Lines end as the file's text splits at '\n' once read: '\r\n' and
        # a lone '\r' end a line too. Blank lines count, rows do not.
        n = 3 * formats._ERROR_BLOCK + 7
        rows = [f"{f},0,1,2,3,4,0.5,0" for f in range(n)]
        rows[2 * formats._ERROR_BLOCK + 3] = bad.format(f=2 * formats._ERROR_BLOCK + 3)
        lines = [formats.DETECTION_HEADER, "", *rows[:10], "", "", *rows[10:]]
        path = tmp_path / "bad.csv"
        path.write_bytes(end.join(lines).encode() + end.encode())
        line = lines.index(rows[2 * formats._ERROR_BLOCK + 3]) + 1
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{line}: "
                                              f"{re.escape(expected)}$"):
            formats.read_detections(path)

    @pytest.mark.parametrize("bad_row, bad, n_accepted, expected", [
        (650, "650,x,1,2,3,4,0.5,0", 600, "cannot parse 'x' as an integer"),
        (650, "650,0,1,2,3,4,1.5,0", 600, "confidence 1.5 outside [0, 1]"),
        (949, "948,0,5,6,7,8,0.5,0", 950, "duplicate key (frame=948, det_id=0)"),
    ], ids=["unparsable", "checked", "duplicate-key"])
    def test_error_path_parses_only_the_rejected_block(self, tmp_path, monkeypatch,
                                                       bad_row, bad, n_accepted, expected):
        # Five blocks of 200 rows. The rows of the blocks accepted before the
        # rejected one (block 4; for a bad key no block is rejected) are
        # counted on the error path, never handed to numpy again.
        block = 200
        rows = [f"{f},0,1,2,3,4,0.5,0" for f in range(950)]
        rows[bad_row] = bad
        accepted = set(rows[:n_accepted])
        lines = [formats.DETECTION_HEADER, *rows[:10], "", *rows[10:640], "", *rows[640:]]
        path = tmp_path / "dets.csv"
        path.write_text("\n".join(lines) + "\n")
        handed = []

        def loadtxt(source, *args, _loadtxt=formats._loadtxt, **kwargs):
            if isinstance(source, list):
                handed.append(source)
            return _loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(formats, "_block_rows", lambda dtype: block)
        monkeypatch.setattr(formats, "_loadtxt", loadtxt)
        with pytest.raises(FormatError) as got:
            formats.read_detections(path)
        assert str(got.value) == f"{path}:{lines.index(bad) + 1}: {expected}"
        assert not [piece for piece in handed if accepted.intersection(piece)]

    def test_undecodable_bytes_below_a_bad_row(self, tmp_path):
        # The file is not UTF-8: the error names the file, then gives reading
        # its text's message, with the byte's position in the file, whatever
        # row is bad above it.
        path = tmp_path / "bad.csv"
        rows = [f"{f},0,1,2,3,4,0.5,0" for f in range(500)]
        rows[3] = "3,x,1,2,3,4,0.5,0"
        path.write_bytes(("\n".join([formats.DETECTION_HEADER, *rows]) + "\n").encode()
                         + b"500,0,1,2,3,\xff,0.5,0\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text(encoding="utf-8")
        with pytest.raises(FormatError) as got:
            formats.read_detections(path)
        assert str(got.value) == f"{path}: {expected.value}"

    def test_failing_read_holds_a_block_not_the_file(self, tmp_path):
        # A 6 MB embeddings file whose last row is short. The error path
        # reads the lines a block at a time: it holds the rows above the bad
        # one, as the valid file's parse does, and one block of text, where
        # it held the file's whole text and a list of its lines.
        n, dim = 2000, 256
        rng = np.random.default_rng(5)
        stream = columns([(f, 0, (1.0, 2.0, 3.0, 4.0), 0.5, 0) for f in range(n)],
                         rng.normal(size=(n, dim)))
        valid, bad = tmp_path / "valid.csv", tmp_path / "bad.csv"
        formats.write_embeddings(valid, stream, dim)
        text = valid.read_bytes()
        bad.write_bytes(text[:text.rindex(b",")] + b"\n")
        size = len(text)

        def peak(path):
            tracemalloc.start()
            try:
                try:
                    formats.read_embeddings(path)
                except FormatError as exc:
                    assert str(exc) == f"{path}:{n + 1}: expected {dim + 2} fields, got {dim + 1}"
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        valid_peak = peak(valid)
        assert size >= 4 << 20
        assert peak(bad) < valid_peak + size / 4, (valid_peak, size)

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
    @settings(max_examples=60, deadline=None)
    @given(frames=st.lists(st.integers(0, 3), max_size=40).map(np.cumsum),
           blank=st.lists(st.booleans(), min_size=41, max_size=41),
           block=st.integers(1, 9), end=st.booleans())
    def test_every_row_read_whatever_ends_the_lines(self, newline, frames, blank, block, end):
        # The rows are read a block at a time from the open file: every row
        # is read once, in file order, wherever blank lines and block
        # boundaries fall and whatever ends the lines.
        lines = [formats.DETECTION_HEADER]
        for k, f in enumerate(frames.tolist()):
            lines += [""] * blank[k] + [f"{f},{k},1.5,2,3,4,0.5,0"]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_block_rows", lambda dtype: block)
            path = Path(tmp) / "dets.csv"
            path.write_bytes((newline.join(lines) + newline * end).encode())
            got = formats.read_detections(path)
        assert got.frame.tolist() == frames.tolist()
        assert got.det_id.tolist() == list(range(len(frames)))


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

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(0, 30), st.integers(1, 4), st.integers(1, 9))
    def test_kept_vectors_are_the_rows_of_the_whole_read(self, data, n, dim, block):
        # Read with detections, the file keeps only the vectors of the
        # detections asked for, in their order: those rows of the matrix
        # read whole, whatever the file's row order and the block size.
        keyed = [(f // 3, f % 3, data.draw(st.lists(st.floats(-1e6, 1e6), min_size=dim,
                                                      max_size=dim)))
                 for f in range(n)]
        stream = keyed_stream(keyed, dim)
        order = data.draw(st.permutations(range(n)))
        rows = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                                           max_size=n)), dtype=np.intp)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_block_rows", lambda dtype: block)
            path = Path(tmp) / "embs.csv"
            formats.write_embeddings(path, replace(
                stream, frame=stream.frame[order], det_id=stream.det_id[order],
                embeddings=stream.embeddings[order]), dim)
            whole = formats.read_embeddings(path)
            kept = formats.read_embeddings(path, stream, rows)
            every = formats.read_embeddings(path, stream)
        merged = formats.merge_embeddings(stream, whole)
        assert kept.vectors.shape == (len(rows), dim)
        assert kept.vectors.tobytes() == merged[rows].tobytes()
        assert every.vectors.tobytes() == merged.tobytes()
        for got in (kept, every):
            assert (got.frame.tolist(), got.det_id.tolist()) == \
                (whole.frame.tolist(), whole.det_id.tolist())

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

    @pytest.mark.parametrize("det_keys, emb_keys, message", [
        ([(0, 0)], [(0, 0), (0, 0)], "embedding key (frame=0, det_id=0) matches no detection"),
        ([(2, 1), (2, 1)], [(2, 1)], "detection (frame=2, det_id=1) has no embedding"),
        ([(1, 0), (1, 0)], [(1, 0), (1, 0)], "detection (frame=1, det_id=0) has no embedding"),
    ], ids=["two-rows-one-detection", "two-detections-one-row", "two-of-each"])
    def test_merge_repeated_keys(self, det_keys, emb_keys, message):
        # Only columns given through the API can repeat a key: each detection
        # needs its own row, and each row its own detection.
        records = columns([(f, d, (0, 0, 1, 1), 0.5, 0) for f, d in det_keys])
        embeddings = embedding_columns([(f, d, np.zeros(2)) for f, d in emb_keys])
        with pytest.raises(FormatError) as got:
            formats.merge_embeddings(records, embeddings)
        assert str(got.value) == message

    @pytest.mark.parametrize("rows", [[0, 0], [2, 0, 2], [-1, 2], [True, False, True], [3],
                                      [-4], [0.0], [[0]]],
                             ids=["repeat", "repeats", "negative-repeat", "mask", "past-end",
                                  "before-start", "float", "2-d"])
    def test_rows_must_be_distinct_indices(self, tmp_path, rows):
        # A repeated index (a negative one too), a boolean mask or an index
        # out of range is refused before the file is read: an absent file
        # gives the same error.
        stream = keyed_stream([(0, 0, [1.0, 0.0]), (0, 1, [2.0, 0.0]), (1, 0, [3.0, 0.0])], 2)
        path = tmp_path / "embs.csv"
        formats.write_embeddings(path, stream, dim=2)
        for source in (path, tmp_path / "absent.csv"):
            with pytest.raises(ValueError, match="^rows must ") as got:
                formats.read_embeddings(source, stream, np.array(rows))
            assert not isinstance(got.value, FormatError)

    @pytest.mark.parametrize("rows", [[0, 0, 5], [], [1]])
    def test_rows_need_detections(self, tmp_path, rows):
        # Without detections every row is kept, so rows would be ignored:
        # it is refused before the file is read.
        stream = keyed_stream([(0, 0, [1.0, 0.0]), (0, 1, [2.0, 0.0]), (1, 0, [3.0, 0.0])], 2)
        path = tmp_path / "embs.csv"
        formats.write_embeddings(path, stream, dim=2)
        for source in (path, tmp_path / "absent.csv"):
            with pytest.raises(ValueError, match="^rows must come with detections") as got:
                formats.read_embeddings(source, rows=np.array(rows))
            assert not isinstance(got.value, FormatError)

    @pytest.mark.parametrize("rows, want", [
        (None, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), ([], []), ([2, 0], [[3.0, 0.0], [1.0, 0.0]]),
        ([-1], [[3.0, 0.0]]),
    ])
    def test_rows_kept_in_their_order(self, tmp_path, rows, want):
        stream = keyed_stream([(0, 0, [1.0, 0.0]), (0, 1, [2.0, 0.0]), (1, 0, [3.0, 0.0])], 2)
        path = tmp_path / "embs.csv"
        formats.write_embeddings(path, stream, dim=2)
        got = formats.read_embeddings(path, stream, rows)
        assert got.vectors.shape == (len(want), 2) and got.vectors.tolist() == want

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
# Streaming ingest at block edges. The readers parse a file a block of rows
# at a time; these cases put each fault at a block's first and last row,
# across a boundary and in the last, partial block, under every line ending
# and with blank lines between the rows. The expected messages were written
# by the whole-file reader that streaming replaced.

EDGE_BLOCK = 8  # rows a block holds in these cases
EDGE_ROWS = 5 * EDGE_BLOCK + 3  # five whole blocks and a partial one
# The rows a fault is put on, by place.
EDGE_PLACES = {
    "block-first": [2 * EDGE_BLOCK],
    "block-last": [3 * EDGE_BLOCK - 1],
    "boundary": [3 * EDGE_BLOCK - 1, 3 * EDGE_BLOCK],
    "partial": [5 * EDGE_BLOCK + 1],
}
EDGE_ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
EDGE_FAULTS = {
    "embeddings": ["unparsable", "short", "range", "duplicate", "unmatched", "missing"],
    "detections": ["unparsable", "short", "range", "duplicate", "unsorted"],
}


def edge_key(r: int) -> list[str]:
    return [str(r // 2), str(r % 2)]


def edge_rows(kind: str, *faults: tuple[str, str]) -> list:
    """The data rows of an embeddings (D = 3) or detections file of
    EDGE_ROWS rows, row r keyed (r // 2, r % 2), with each (fault, place) of
    `faults` on the rows of its place. A fault that adds or drops a row does
    so at that index."""
    def row(r):
        if kind == "embeddings":
            return edge_key(r) + [f"{r}.5", f"-{r}.25", "0.125"]
        return edge_key(r) + [f"{r}.5", "2", "30", "40.5", "0.75", "0"]

    rows = [row(r) for r in range(EDGE_ROWS)]
    for fault, place in faults:
        _put_fault(kind, rows, fault, place)
    return rows


def _put_fault(kind: str, rows: list, fault: str, place: str) -> None:
    places = EDGE_PLACES[place]
    if fault == "duplicate" and place == "boundary":
        places = places[1:]  # the later copy; the earlier one is the row above it
    for r in sorted(places, reverse=True):
        if fault == "unparsable":
            rows[r][3] = "x"
        elif fault == "short":
            rows[r].pop()
        elif fault == "range":
            if kind == "embeddings":
                rows[r][2] = "1e101"
            else:
                rows[r][6] = "1.5"
        elif fault == "duplicate":
            # A detections file keeps its frames sorted: it copies the key
            # above. An embeddings file copies one from a block above.
            above = kind == "detections" or place == "boundary"
            rows[r][:2] = edge_key(r - 1 if above else r // 4)
        elif fault == "unsorted":
            rows[r][0] = "0"
        elif fault == "unmatched":
            rows.insert(r, [str(r // 2), "7"] + rows[r][2:])
        elif fault == "missing":
            del rows[r]


def edge_bytes(kind: str, rows: list, ending: str) -> bytes:
    """A file of the rows, with blank lines below the header, above the
    first row of block 3 and at the end."""
    header = "frame,det_id,e0,e1,e2" if kind == "embeddings" else formats.DETECTION_HEADER
    lines = [header, "", *(",".join(row) for row in rows), "", ""]
    lines.insert(2 + 3 * EDGE_BLOCK, "")
    return (ending.join(lines) + ending).encode()


def edge_camera(tmp_path: Path, kind: str, ending: str, rows: list) -> CameraFiles:
    """A camera's files: `rows` as the `kind` file, beside a valid other file
    (none for a faulty detections file)."""
    det, emb = tmp_path / "detections.csv", tmp_path / "embeddings.csv"
    det.write_bytes(edge_bytes("detections", edge_rows("detections"), ending))
    (det if kind == "detections" else emb).write_bytes(edge_bytes(kind, rows, ending))
    return CameraFiles(det, emb if kind == "embeddings" else None)


# Two faults in one file, in different blocks.
EDGE_MIXED = [
    ("embeddings", [("range", "block-first"), ("unparsable", "partial")]),
    ("embeddings", [("unparsable", "block-first"), ("duplicate", "partial")]),
    ("embeddings", [("short", "partial"), ("duplicate", "boundary")]),
    ("embeddings", [("range", "partial"), ("unparsable", "block-last")]),
    ("detections", [("range", "block-first"), ("short", "partial")]),
    ("detections", [("unparsable", "block-last"), ("unsorted", "partial")]),
    ("detections", [("short", "partial"), ("duplicate", "boundary")]),
]
# Written by the whole-file reader; {tmp} is the files' directory.
EDGE_EXPECTED = {
    'embeddings:unparsable@block-first':
        "{tmp}/embeddings.csv:19: cannot parse 'x' as a number",
    'embeddings:unparsable@block-last':
        "{tmp}/embeddings.csv:26: cannot parse 'x' as a number",
    'embeddings:unparsable@boundary':
        "{tmp}/embeddings.csv:26: cannot parse 'x' as a number",
    'embeddings:unparsable@partial':
        "{tmp}/embeddings.csv:45: cannot parse 'x' as a number",
    'embeddings:short@block-first':
        '{tmp}/embeddings.csv:19: expected 5 fields, got 4',
    'embeddings:short@block-last':
        '{tmp}/embeddings.csv:26: expected 5 fields, got 4',
    'embeddings:short@boundary':
        '{tmp}/embeddings.csv:26: expected 5 fields, got 4',
    'embeddings:short@partial':
        '{tmp}/embeddings.csv:45: expected 5 fields, got 4',
    'embeddings:range@block-first':
        '{tmp}/embeddings.csv:19: embedding value 1e+101 out of range: '
        'every embedding value must be within [-1e+100, 1e+100]',
    'embeddings:range@block-last':
        '{tmp}/embeddings.csv:26: embedding value 1e+101 out of range: '
        'every embedding value must be within [-1e+100, 1e+100]',
    'embeddings:range@boundary':
        '{tmp}/embeddings.csv:26: embedding value 1e+101 out of range: '
        'every embedding value must be within [-1e+100, 1e+100]',
    'embeddings:range@partial':
        '{tmp}/embeddings.csv:45: embedding value 1e+101 out of range: '
        'every embedding value must be within [-1e+100, 1e+100]',
    'embeddings:duplicate@block-first':
        '{tmp}/embeddings.csv:19: duplicate key (frame=2, det_id=0)',
    'embeddings:duplicate@block-last':
        '{tmp}/embeddings.csv:26: duplicate key (frame=2, det_id=1)',
    'embeddings:duplicate@boundary':
        '{tmp}/embeddings.csv:28: duplicate key (frame=11, det_id=1)',
    'embeddings:duplicate@partial':
        '{tmp}/embeddings.csv:45: duplicate key (frame=5, det_id=0)',
    'embeddings:unmatched@block-first':
        '{tmp}/embeddings.csv: embedding key (frame=8, det_id=7) matches no detection',
    'embeddings:unmatched@block-last':
        '{tmp}/embeddings.csv: embedding key (frame=11, det_id=7) matches no detection',
    'embeddings:unmatched@boundary':
        '{tmp}/embeddings.csv: embedding key (frame=11, det_id=7) matches no detection',
    'embeddings:unmatched@partial':
        '{tmp}/embeddings.csv: embedding key (frame=20, det_id=7) matches no detection',
    'embeddings:missing@block-first':
        '{tmp}/embeddings.csv: detection (frame=8, det_id=0) has no embedding',
    'embeddings:missing@block-last':
        '{tmp}/embeddings.csv: detection (frame=11, det_id=1) has no embedding',
    'embeddings:missing@boundary':
        '{tmp}/embeddings.csv: detection (frame=11, det_id=1) has no embedding',
    'embeddings:missing@partial':
        '{tmp}/embeddings.csv: detection (frame=20, det_id=1) has no embedding',
    'detections:unparsable@block-first':
        "{tmp}/detections.csv:19: cannot parse 'x' as a number",
    'detections:unparsable@block-last':
        "{tmp}/detections.csv:26: cannot parse 'x' as a number",
    'detections:unparsable@boundary':
        "{tmp}/detections.csv:26: cannot parse 'x' as a number",
    'detections:unparsable@partial':
        "{tmp}/detections.csv:45: cannot parse 'x' as a number",
    'detections:short@block-first':
        '{tmp}/detections.csv:19: expected 8 fields, got 7',
    'detections:short@block-last':
        '{tmp}/detections.csv:26: expected 8 fields, got 7',
    'detections:short@boundary':
        '{tmp}/detections.csv:26: expected 8 fields, got 7',
    'detections:short@partial':
        '{tmp}/detections.csv:45: expected 8 fields, got 7',
    'detections:range@block-first':
        '{tmp}/detections.csv:19: confidence 1.5 outside [0, 1]',
    'detections:range@block-last':
        '{tmp}/detections.csv:26: confidence 1.5 outside [0, 1]',
    'detections:range@boundary':
        '{tmp}/detections.csv:26: confidence 1.5 outside [0, 1]',
    'detections:range@partial':
        '{tmp}/detections.csv:45: confidence 1.5 outside [0, 1]',
    'detections:duplicate@block-first':
        '{tmp}/detections.csv:19: duplicate key (frame=7, det_id=1)',
    'detections:duplicate@block-last':
        '{tmp}/detections.csv:26: duplicate key (frame=11, det_id=0)',
    'detections:duplicate@boundary':
        '{tmp}/detections.csv:28: duplicate key (frame=11, det_id=1)',
    'detections:duplicate@partial':
        '{tmp}/detections.csv:45: duplicate key (frame=20, det_id=0)',
    'detections:unsorted@block-first':
        '{tmp}/detections.csv:19: frames must be sorted ascending',
    'detections:unsorted@block-last':
        '{tmp}/detections.csv:26: frames must be sorted ascending',
    'detections:unsorted@boundary':
        '{tmp}/detections.csv:26: frames must be sorted ascending',
    'detections:unsorted@partial':
        '{tmp}/detections.csv:45: frames must be sorted ascending',
    'embeddings:range@block-first+unparsable@partial':
        '{tmp}/embeddings.csv:19: embedding value 1e+101 out of range: '
        'every embedding value must be within [-1e+100, 1e+100]',
    'embeddings:unparsable@block-first+duplicate@partial':
        "{tmp}/embeddings.csv:19: cannot parse 'x' as a number",
    'embeddings:short@partial+duplicate@boundary':
        '{tmp}/embeddings.csv:28: duplicate key (frame=11, det_id=1)',
    'embeddings:range@partial+unparsable@block-last':
        "{tmp}/embeddings.csv:26: cannot parse 'x' as a number",
    'detections:range@block-first+short@partial':
        '{tmp}/detections.csv:19: confidence 1.5 outside [0, 1]',
    'detections:unparsable@block-last+unsorted@partial':
        "{tmp}/detections.csv:26: cannot parse 'x' as a number",
    'detections:short@partial+duplicate@boundary':
        '{tmp}/detections.csv:28: duplicate key (frame=11, det_id=1)',
}


class TestStreamingIngest:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(formats, "_block_rows", lambda dtype: EDGE_BLOCK)

    @pytest.mark.parametrize("ending", EDGE_ENDINGS)
    @pytest.mark.parametrize("place", EDGE_PLACES)
    @pytest.mark.parametrize("kind, fault", [
        (kind, fault) for kind, faults in EDGE_FAULTS.items() for fault in faults
    ])
    def test_fault_at_a_block_edge(self, tmp_path, kind, fault, place, ending):
        files = edge_camera(tmp_path, kind, EDGE_ENDINGS[ending], edge_rows(kind, (fault, place)))
        expected = EDGE_EXPECTED[f"{kind}:{fault}@{place}"].format(tmp=tmp_path)
        for cfg in (PipelineConfig(), study2_preset()):
            with pytest.raises(FormatError) as got:
                process_camera(0, files, cfg)
            assert str(got.value) == expected

    @pytest.mark.parametrize("ending", EDGE_ENDINGS)
    @pytest.mark.parametrize("kind, faults", EDGE_MIXED)
    def test_first_bad_row_across_blocks(self, tmp_path, kind, faults, ending):
        # A row a check flags and a row that fails to parse, in different
        # blocks: the first of them is reported.
        files = edge_camera(tmp_path, kind, EDGE_ENDINGS[ending], edge_rows(kind, *faults))
        key = "+".join(f"{fault}@{place}" for fault, place in faults)
        with pytest.raises(FormatError) as got:
            process_camera(0, files, PipelineConfig())
        assert str(got.value) == EDGE_EXPECTED[f"{kind}:{key}"].format(tmp=tmp_path)

    @pytest.mark.parametrize("ending", EDGE_ENDINGS)
    @pytest.mark.parametrize("kind", EDGE_FAULTS)
    def test_undecodable_byte_below_a_bad_block(self, tmp_path, kind, ending):
        # A byte that is not UTF-8 in the last block is reported, not the
        # bad row in a block above it.
        files = edge_camera(tmp_path, kind, EDGE_ENDINGS[ending],
                            edge_rows(kind, ("range", "block-first")))
        path = files.embeddings or files.detections
        path.write_bytes(path.read_bytes().rstrip(EDGE_ENDINGS[ending].encode())[:-1] + b"\xff")
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text(encoding="utf-8")
        with pytest.raises(FormatError) as got:
            process_camera(0, files, PipelineConfig())
        assert str(got.value) == f"{path}: {expected.value}"

    @pytest.mark.parametrize("ending", EDGE_ENDINGS)
    def test_blocks_read_as_one_parse(self, tmp_path, monkeypatch, ending):
        # Each file is read EDGE_BLOCK rows at a time, whatever ends its
        # lines, and its rows are the line-by-line reference's.
        files = edge_camera(tmp_path, "embeddings", EDGE_ENDINGS[ending], edge_rows("embeddings"))
        parsed = []

        def loadtxt(*args, _loadtxt=formats._loadtxt, **kwargs):
            rows = _loadtxt(*args, **kwargs)
            parsed.append(len(rows))
            return rows

        want = [detection_fields(d) for d in read_reference(files.detections, files.embeddings)]
        monkeypatch.setattr(formats, "_loadtxt", loadtxt)
        got = [detection_fields(d) for d in read_stream(files.detections, files.embeddings)]
        assert got == want
        assert parsed == 2 * ([EDGE_BLOCK] * (EDGE_ROWS // EDGE_BLOCK) + [EDGE_ROWS % EDGE_BLOCK])


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


def per_entry_tracklets(path) -> tuple[int, list[Tracklet]]:
    """A sidecar as the per-entry reader reads it: the hooked read_json,
    then one entry at a time."""
    doc = formats.read_json(path)
    return doc["camera_id"], formats._tracklets_by_entry(path, doc["camera_id"], doc["tracklets"])


def assert_same_tracklets(got: list[Tracklet], want: list[Tracklet]) -> None:
    """Bitwise equal columns, of equal dtypes and shapes; None embeddings alike."""
    assert [(t.camera_id, t.track_id) for t in got] == [(t.camera_id, t.track_id) for t in want]
    for a, b in zip(got, want):
        for name in ("frames", "boxes", "confidences", "embedding"):
            x, y = getattr(a, name), getattr(b, name)
            if y is None:
                assert x is None, name
            else:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


@pytest.fixture(scope="module")
def tracked_sidecars(tmp_path_factory) -> dict[str, Path]:
    """Sidecars `mcmot track` wrote with and without --embeddings, and the
    results file `mcmot associate` wrote from the first two."""
    from mcmot.cli import main

    root = tmp_path_factory.mktemp("sidecars")
    cfg = root / "scenario.json"
    cfg.write_text(json.dumps({"cameras": 2, "identities": 4, "frames": 30, "embedding_dim": 8,
                               "miss_prob": 0.1, "false_positive_rate": 0.3}))
    scn = root / "scn"
    assert main(["simulate", "--config", str(cfg), "--seed", "29", "--out", str(scn)]) == 0
    (root / "tracks").mkdir()
    (root / "plain").mkdir()
    for cam in range(2):
        assert main(["track", "--detections", str(scn / f"detections_cam{cam}.csv"),
                     "--embeddings", str(scn / f"embeddings_cam{cam}.csv"), "--camera-id",
                     str(cam), "--output", str(root / "tracks" / f"cam{cam}.csv")]) == 0
    assert main(["track", "--detections", str(scn / "detections_cam1.csv"), "--camera-id", "1",
                 "--output", str(root / "plain" / "cam1.csv")]) == 0
    results = root / "results.json"
    assert main(["associate", "--tracks", str(root / "tracks"), "--output", str(results)]) == 0
    return {"embeddings": root / "tracks" / "cam0.tracklets.json",
            "no_embeddings": root / "plain" / "cam1.tracklets.json", "results": results}


def long_sidecar(path: Path, n: int = 600) -> dict:
    """A sidecar of n three-frame tracklets with track_id k at entry k, as
    the JSON document written to path."""
    formats.write_tracklets_json(path, 0, [make_tracklet(track_id=k, n=3) for k in range(n)])
    return json.loads(path.read_text())


class TestSidecarColumns:
    """The column reader of tracklet entries (_tracklets_from_doc) against
    the per-entry reader (_tracklets_by_entry)."""

    @pytest.mark.parametrize("which", ["embeddings", "no_embeddings"])
    def test_tracked_sidecar_reads_as_per_entry(self, tracked_sidecars, monkeypatch, which):
        path = tracked_sidecars[which]
        want_camera, want = per_entry_tracklets(path)
        assert want and (want[0].embedding is None) == (which == "no_embeddings")
        # A valid sidecar is read without the hooked read_json.
        monkeypatch.setattr(formats, "read_json", None)
        camera_id, got = formats.read_tracklets_json(path)
        assert camera_id == want_camera
        assert_same_tracklets(got, want)

    @pytest.mark.parametrize("tracklets", [
        [make_tracklet(track_id=k, n=1, with_embeddings=k % 2 == 0) for k in (4, 1, 9)],
        [],
    ], ids=["one_frame", "no_tracklets"])
    def test_written_sidecar_reads_as_per_entry(self, tmp_path, monkeypatch, tracklets):
        path = tmp_path / "cam3.tracklets.json"
        formats.write_tracklets_json(path, 3, tracklets)
        want = per_entry_tracklets(path)
        monkeypatch.setattr(formats, "read_json", None)
        got = formats.read_tracklets_json(path)
        assert got[0] == want[0] == 3
        assert_same_tracklets(got[1], want[1])

    def test_hand_written_numbers_read_as_per_entry(self, tmp_path):
        """Integers where floats go, past int64, near the float range, -0.0
        and a subnormal convert as the per-entry reader converts them."""
        entries = [
            {"track_id": -7, "frames": [-3, 2**62, 2**63 - 1],
             "boxes": [[2**63 + 1, -0.0, 10**300, 5e-324], [1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4]],
             "confidences": [1, 0, 0.5], "mean_confidence": 2**70,
             "mean_embedding": [2**53 + 1, -1, 1.7976931348623157e308]},
            {"track_id": 0, "frames": [5], "boxes": [[0, 0, 1, 1]], "confidences": [0.25]},
        ]
        found = formats._tracklets_from_doc(2, entries)
        assert found is not None
        assert_same_tracklets(found[0], formats._tracklets_by_entry(tmp_path, 2, entries))

    def test_results_file_reads_as_per_entry(self, tracked_sidecars):
        path = tracked_sidecars["results"]
        doc = formats.read_json(path)
        got = formats.read_results_json(path).camera_tracklets
        assert sorted(got) == [0, 1]
        for cam_doc in doc["cameras"]:
            cam, entries = cam_doc["camera_id"], cam_doc["tracklets"]
            assert formats._tracklets_from_doc(cam, entries) is not None
            assert_same_tracklets(got[cam], formats._tracklets_by_entry(path, cam, entries))

    @pytest.mark.parametrize("fault, message", [
        ("bool_frame", "camera 0, track 437: frame must be an integer, got true"),
        ("ragged_box",
         "camera 0, track 437: box must be a list of 4 numbers, got [2.0, 2.0, 30.0]"),
        ("frames_not_increasing",
         "camera 0, track 437: frames must be strictly increasing, got 1 after 2"),
        ("repeated_track_id", "camera 0: track 436 is listed twice"),
    ], ids=["bool_frame", "ragged_box", "frames_not_increasing", "repeated_track_id"])
    def test_first_bad_entry_is_named(self, tmp_path, fault, message):
        """One bad value in entry 437 of 600 is named as the per-entry
        reader names it, before a fault of a later entry."""
        path = tmp_path / "cam0.tracklets.json"
        doc = long_sidecar(path)
        entries = doc["tracklets"]
        for k in (437, 599):
            entry = entries[k]
            if fault == "bool_frame":
                entry["frames"][1] = True
            elif fault == "ragged_box":
                entry["boxes"][2].pop()
            elif fault == "frames_not_increasing":
                entry["frames"] = [0, 2, 1]
            else:
                entry["track_id"] = k - 1
            if k == 599 and fault != "repeated_track_id":
                entry["confidences"] = "high"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as exc:
            formats.read_tracklets_json(path)
        assert str(exc.value) == f"{path}: {message}"


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
        want = truth.cameras[0][0]
        assert [i for i, _ in first] == [i for i, _ in want]

    @pytest.mark.parametrize("identity_count, embeddings", [
        (3, [[1.0, 0.0]]), (3, []), (1, [[1.0], [0.0]]), (0, []),
    ], ids=["too_few", "empty", "too_many", "empty_for_none"])
    def test_embeddings_are_one_row_per_identity(self, tmp_path, identity_count, embeddings):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(
            {"identity_count": identity_count, "embeddings": embeddings, "cameras": {}}))
        with pytest.raises(FormatError) as exc:
            formats.read_truth_json(path)
        assert str(exc.value) == (
            f"{path}: embeddings must be null or identity_count rows of one width >= 1, "
            f"got {len(embeddings)} rows for identity_count {identity_count}"
        )


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

    @staticmethod
    def written_doc(tmp_path):
        from mcmot.association import Cluster

        camera_tracklets = {0: [make_tracklet(0, 1)]}
        doc = formats.results_doc(camera_tracklets, [Cluster(1, [(0, 1)])],
                                  {"euclidean": 1, "euclidean_voting": 1}, 20)
        formats.write_results_json(tmp_path / "results.json", doc)
        return json.loads((tmp_path / "results.json").read_text())

    @pytest.mark.parametrize("changes, message", [
        # Each of these read cleanly before its key was typed.
        ({"method_counts": "garbage", "count_report": [1e308, {"x": True}], "timing": "nope"},
         'method_counts must be null or an object, got "garbage"'),
        ({"method_counts": {"euclidean": -1}}, "method_counts: euclidean must be >= 0, got -1"),
        ({"method_counts": {"euclidean": True}},
         "method_counts: euclidean must be an integer, got true"),
        ({"method_counts": {"euclidean": 1.0}},
         "method_counts: euclidean must be an integer, got 1.0"),
        ({"method_counts": {"voting": 1}}, 'method_counts: "voting" is not a method'),
        ({"count_report": [1e308, {"x": True}]},
         'count_report must be null, got [1e+308, {"x": true}]'),
        ({"count_report": {}}, "count_report must be null, got {}"),
        ({"timing": "nope"}, 'timing must be an object, got "nope"'),
        ({"timing": None}, "timing must be an object, got null"),
        ({"timing": {"cameras": 1}}, "timing: missing key 'frames_processed'"),
        ({"timing": {"frames_processed": 20, "cameras": -1}}, "timing: cameras must be >= 0, got -1"),
        ({"timing": {"frames_processed": 2.0, "cameras": 1}},
         "timing: frames_processed must be an integer, got 2.0"),
    ])
    def test_other_keys_typed(self, tmp_path, changes, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(self.written_doc(tmp_path), **changes)))
        with pytest.raises(FormatError) as got:
            formats.read_results_json(path)
        assert str(got.value) == f"{path}: {message}"

    def test_missing_timing_rejected(self, tmp_path):
        doc = self.written_doc(tmp_path)
        del doc["timing"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"^{path}: missing key 'timing'$"):
            formats.read_results_json(path)

    def test_unknown_and_absent_optional_keys_accepted(self, tmp_path):
        doc = self.written_doc(tmp_path)
        del doc["method_counts"], doc["count_report"]
        doc["extra"] = 1
        doc["timing"]["wall_time_s"] = 0.5
        path = tmp_path / "other.json"
        path.write_text(json.dumps(doc))
        got = formats.read_results_json(path)
        assert got.method_counts is None and got.unique_count == 1

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
        "max_appearance_distance": NON_NEGATIVE, "max_iou_distance": NON_NEGATIVE,
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
            ({"tracker": {"max_appearance_distance": -1.0, "max_iou_distance": -5.0}},
             "invalid tracker config: max_appearance_distance must be >= 0, got -1.0"),
            ({"tracker": {"max_iou_distance": -5.0}},
             "invalid tracker config: max_iou_distance must be >= 0, got -5.0"),
        ],
    )
    def test_field_errors_name_the_field(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "section, field, message",
        [
            (TrackerConfig, "max_appearance_distance",
             "max_appearance_distance must be >= 0, got nan"),
            (TrackerConfig, "max_iou_distance", "max_iou_distance must be >= 0, got nan"),
            (TrackerConfig, "min_confidence", "min_confidence must be a number, got nan"),
            (PipelineConfig, "detection_threshold", "detection_threshold must be a number, got nan"),
            (PipelineConfig, "export_confidence", "export_confidence must be a number, got nan"),
        ],
    )
    def test_python_api_thresholds_refuse_nan(self, section, field, message):
        # JSON cannot spell NaN (typed_value refuses it); the Python API can.
        # A negative confidence threshold stays valid: it keeps everything.
        with pytest.raises(ValueError) as info:
            section(**{field: math.nan})
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
