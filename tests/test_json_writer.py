"""The file writers against their oracles.

`formats.json_text` renders results files, tracklet sidecars and truth
files. Its oracle is json.dumps(doc, indent=2, sort_keys=True) of the same
document with every numpy array as lists and every float rounded by
`formats.round9`; the file writers' oracles are the document builders that
produced that form one number at a time.

Every writer streams its text to the file in blocks. A streamed JSON file
must equal json_text(doc) + "\n", and each CSV file the text the writers
built whole before they streamed (kept here as their oracles), whatever the
block sizes. Under tracemalloc, a write of a few MB must hold a small
fraction of its file.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot import formats
from mcmot.association import Cluster
from mcmot.geometry import BoundingBox, CameraStream
from mcmot.sim import GroundTruth
from mcmot.tracker import Tracklet

round9 = formats.round9

# Floats where rounding to 9 digits, the '.9g' text and repr part ways: whole
# numbers, a value that rounds up to a whole number, signed zeros,
# subnormals, and magnitudes where '.9g' switches to an exponent (1e9) long
# before repr does (1e16).
EDGE_FLOATS = [
    413.0, 123456789.5, 0.0, -0.0, 1e-05, 1.5e-07, 5e-324, 1.5e9, 1e16, 1e22,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2.5, 999999999.5,
    0.0001, 0.00012345678949, 1e-4 * (1 - 1e-16), 2.0 ** 53 + 2, -123.456789012,
]


def plain(value):
    """The document json.dumps is given: arrays as lists, floats round9'd."""
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, float):
        return round9(value)
    return value


def oracle_text(doc) -> str:
    return json.dumps(plain(doc), indent=2, sort_keys=True)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
any_float = st.floats() | st.sampled_from(EDGE_FLOATS)
int64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def float_arrays(draw, elements=any_float):
    shape = draw(st.sampled_from(["1d", "2d", "2d-empty-rows"]))
    n = draw(st.integers(0, 5))
    if shape == "1d":
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64)
    width = 0 if shape == "2d-empty-rows" else draw(st.integers(1, 5))
    values = draw(st.lists(elements, min_size=n * width, max_size=n * width))
    return np.array(values, dtype=np.float64).reshape(n, width)


@st.composite
def int_arrays(draw):
    values = draw(st.lists(int64, max_size=6))
    a = np.array(values, dtype=np.int64)
    return a.reshape(-1, 2) if len(a) % 2 == 0 and draw(st.booleans()) else a


scalars = (
    st.none() | st.booleans() | st.integers() | any_float
    | st.text(max_size=6)
)
trees = st.recursive(
    scalars | float_arrays() | int_arrays(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=600, deadline=None)
    @given(trees)
    def test_equals_json_dumps_of_the_round9_document(self, doc):
        assert formats.json_text(doc) == oracle_text(doc)

    @pytest.mark.parametrize("v", EDGE_FLOATS + [math.nan, math.inf, -math.inf])
    def test_edge_floats(self, v):
        for doc in (v, [v], {"a": v}, np.array([v]), np.array([[v, 1.0]])):
            assert formats.json_text(doc) == oracle_text(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], np.zeros(0), np.zeros((0, 4)), np.zeros((3, 0)), np.zeros(0, dtype=np.int64),
        {"clusters": [], "method_counts": None, "embedding": None},
        {"b": [], "a": {}, "c": [[]], "d": [{}]},
    ])
    def test_empty_containers(self, doc):
        assert formats.json_text(doc) == oracle_text(doc)

    def test_key_order_and_escapes(self):
        doc = {"b": 1, "a": 2, "é": "ü\n\"", "A": [True, False, None]}
        assert formats.json_text(doc) == oracle_text(doc)

    @pytest.mark.parametrize("doc", [{1: 2}, np.int64(3), {"a": object()}])
    def test_rejects_what_json_cannot_write(self, doc):
        with pytest.raises(TypeError):
            formats.json_text(doc)


# ----------------------------------------------------------------------
# File writers against the document builders that rounded one number at a
# time, as the files were written before the writer took arrays.


def reference_tracklet_doc(t: Tracklet) -> dict:
    return {
        "track_id": t.track_id,
        "frames": t.frames.tolist(),
        "boxes": [[round9(v) for v in box] for box in t.boxes.tolist()],
        "confidences": [round9(c) for c in t.confidences.tolist()],
    }


def reference_sidecar_doc(camera_id, tracklets) -> dict:
    return {
        "camera_id": camera_id,
        "tracklets": [
            {
                **reference_tracklet_doc(t),
                "mean_confidence": round9(t.mean_confidence),
                "mean_embedding": (
                    None if t.embedding is None else [round9(v) for v in t.embedding]
                ),
            }
            for t in tracklets
        ],
    }


def reference_results_doc(camera_tracklets, clusters, method_counts, frames_processed) -> dict:
    return {
        "cameras": [
            {"camera_id": cam,
             "tracklets": [reference_tracklet_doc(t) for t in camera_tracklets[cam]]}
            for cam in sorted(camera_tracklets)
        ],
        "clusters": [
            {"global_id": c.global_id, "members": [[cam, tid] for cam, tid in c.members]}
            for c in clusters
        ],
        "unique_count": len(clusters),
        "method_counts": dict(method_counts) if method_counts else None,
        "count_report": None,
        "timing": {"frames_processed": frames_processed, "cameras": len(camera_tracklets)},
    }


def reference_truth_doc(truth: GroundTruth) -> dict:
    return {
        "identity_count": truth.identity_count,
        "embeddings": [[round9(v) for v in row] for row in truth.embeddings],
        "cameras": {
            str(cam): {
                str(f): [
                    [identity, round9(b.x), round9(b.y), round9(b.w), round9(b.h)]
                    for identity, b in entries
                ]
                for f, entries in enumerate(frames)
            }
            for cam, frames in sorted(truth.boxes.items())
        },
    }


def dumped(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@st.composite
def tracklet_lists(draw, camera_id=0):
    tracklets = []
    for track_id in draw(st.lists(st.integers(0, 50), unique=True, max_size=4)):
        n = draw(st.integers(0, 4))
        frames = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
        boxes = draw(st.lists(finite, min_size=4 * n, max_size=4 * n))
        confidences = draw(st.lists(finite, min_size=n, max_size=n))
        embedding = draw(st.none() | st.lists(finite, min_size=1, max_size=4).map(np.array))
        tracklets.append(Tracklet(camera_id, track_id, frames, np.reshape(boxes, (n, 4)),
                                  confidences, embedding))
    return tracklets


class TestFileWriters:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mean_confidence may overflow to inf
    @settings(max_examples=200, deadline=None)
    @given(tracklet_lists(), st.integers(0, 9))
    def test_sidecar(self, tmp_path_factory, tracklets, camera_id):
        path = tmp_path_factory.mktemp("sidecar") / "cam.tracklets.json"
        formats.write_tracklets_json(path, camera_id, tracklets)
        assert path.read_bytes() == dumped(reference_sidecar_doc(camera_id, tracklets))

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 5), tracklet_lists(), max_size=3),
        st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 50)), max_size=3),
                 max_size=3),
        st.none() | st.dictionaries(st.sampled_from(["euclidean", "euclidean_voting"]),
                                    st.integers(0, 99)),
        st.integers(0, 10**6),
    )
    def test_results(self, tmp_path_factory, camera_tracklets, members, counts, frames):
        clusters = [Cluster(global_id=i + 1, members=m) for i, m in enumerate(members)]
        path = tmp_path_factory.mktemp("results") / "results.json"
        formats.write_results_json(
            path, formats.results_doc(camera_tracklets, clusters, counts, frames))
        want = reference_results_doc(camera_tracklets, clusters, counts, frames)
        assert path.read_bytes() == dumped(want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.data())
    def test_truth(self, tmp_path_factory, identities, dim, cameras, data):
        embeddings = np.reshape(
            data.draw(st.lists(finite, min_size=identities * dim, max_size=identities * dim)),
            (identities, dim))
        box = st.builds(BoundingBox, finite, finite, finite, finite)
        frames = st.lists(st.lists(st.tuples(st.integers(0, identities - 1), box), max_size=2),
                          max_size=3)
        truth = GroundTruth(embeddings=embeddings,
                            boxes={cam: data.draw(frames) for cam in range(cameras)})
        path = tmp_path_factory.mktemp("truth") / "truth.json"
        formats.write_truth_json(path, truth)
        assert path.read_bytes() == dumped(reference_truth_doc(truth))


# ----------------------------------------------------------------------
# Streamed writes. Small block sizes make short documents span many blocks.

block_sizes = st.tuples(st.integers(1, 300), st.integers(1, 12))


def small_blocks(sizes):
    block, values = sizes
    return mock.patch.multiple(formats, _BLOCK=block, _BLOCK_VALUES=values)


def joined_detections(stream: CameraStream) -> str:
    """The detections file as the writer built it whole."""
    lines = [formats.DETECTION_HEADER]
    for frame, det_id, (x, y, w, h), conf, class_id in zip(
        stream.frame.tolist(), stream.det_id.tolist(), stream.box.tolist(),
        stream.confidence.tolist(), stream.class_id.tolist(),
    ):
        fmt9 = formats.fmt9
        lines.append(
            f"{frame},{det_id},{fmt9(x)},{fmt9(y)},{fmt9(w)},{fmt9(h)},{fmt9(conf)},{class_id}"
        )
    return "\n".join(lines) + "\n"


def joined_embeddings(stream: CameraStream, dim: int) -> str:
    """The embeddings file as the writer built it whole."""
    vectors = stream.embeddings if len(stream) else np.empty((0, dim))
    lines = ["frame,det_id," + ",".join(f"e{i}" for i in range(dim))]
    for frame, det_id, vec in zip(stream.frame.tolist(), stream.det_id.tolist(), vectors.tolist()):
        lines.append(f"{frame},{det_id}," + ",".join(map(formats.fmt9, vec)))
    return "\n".join(lines) + "\n"


def joined_tracks(tracklets) -> str:
    """The track CSV as the writer built it whole."""
    lines = [formats.TRACK_HEADER]
    if tracklets:
        frames = np.concatenate([t.frames for t in tracklets])
        track_ids = np.repeat([t.track_id for t in tracklets], [len(t) for t in tracklets])
        order = np.lexsort((track_ids, frames))
        boxes = np.concatenate([t.boxes for t in tracklets])[order]
        confidences = np.concatenate([t.confidences for t in tracklets])[order]
        for f, tid, (x, y, w, h), c in zip(
            frames[order].tolist(), track_ids[order].tolist(), boxes.tolist(),
            confidences.tolist(),
        ):
            lines.append(f"{f},{tid},{x:.9g},{y:.9g},{w:.9g},{h:.9g},{c:.9g}")
    return "\n".join(lines) + "\n"


@st.composite
def streams(draw, dim=None):
    """A stream of up to 30 rows, with any floats, and its embeddings'
    width (1 to 6 unless given)."""
    n = draw(st.integers(0, 30))
    dim = draw(st.integers(1, 6)) if dim is None else dim
    floats = st.lists(any_float, min_size=n * (5 + dim), max_size=n * (5 + dim))
    values = np.array(draw(floats), dtype=np.float64).reshape(n, 5 + dim)
    ints = st.lists(int64, min_size=3 * n, max_size=3 * n)
    keys = np.array(draw(ints), dtype=np.int64).reshape(n, 3)
    stream = CameraStream(
        frame=keys[:, 0], det_id=keys[:, 1], box=values[:, :4], confidence=values[:, 4],
        class_id=keys[:, 2], embeddings=values[:, 5:],
    )
    return stream, dim


def written(tmp_path_factory, write) -> bytes:
    path = tmp_path_factory.mktemp("out") / "file"
    write(path)
    return path.read_bytes()


class TestStreamedWrites:
    @settings(max_examples=300, deadline=None)
    @given(trees, block_sizes)
    def test_json_file_is_json_text(self, tmp_path_factory, doc, sizes):
        with small_blocks(sizes):
            got = written(tmp_path_factory, lambda p: formats._write_json(p, doc))
        assert got == (formats.json_text(doc) + "\n").encode()

    def test_json_file_of_many_blocks(self, tmp_path):
        # Real block sizes: an array of 12 blocks of numbers and a text of
        # about 9 blocks of characters.
        rng = np.random.default_rng(5)
        doc = {"a": rng.normal(size=(3000, 16)),
               "b": [{"k": i, "v": [i / 7] * 3} for i in range(500)]}
        text = formats.json_text(doc) + "\n"
        assert len(text) > 8 * formats._BLOCK and doc["a"].size > 8 * formats._BLOCK_VALUES
        formats._write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == text.encode()
        assert text == json.dumps(plain(doc), indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(streams(), block_sizes)
    def test_detections(self, tmp_path_factory, drawn, sizes):
        stream, _ = drawn
        with small_blocks(sizes):
            got = written(tmp_path_factory, lambda p: formats.write_detections(p, stream))
        assert got == joined_detections(stream).encode()

    @settings(max_examples=200, deadline=None)
    @given(streams() | streams(dim=1), block_sizes)
    def test_embeddings(self, tmp_path_factory, drawn, sizes):
        stream, dim = drawn
        with small_blocks(sizes):
            got = written(tmp_path_factory, lambda p: formats.write_embeddings(p, stream, dim))
        assert got == joined_embeddings(stream, dim).encode()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mean_confidence may overflow to inf
    @settings(max_examples=200, deadline=None)
    @given(st.lists(tracklet_lists(), max_size=3).map(lambda ls: [t for tl in ls for t in tl]),
           block_sizes)
    def test_tracks(self, tmp_path_factory, tracklets, sizes):
        with small_blocks(sizes):
            got = written(tmp_path_factory, lambda p: formats.write_tracks_csv(p, tracklets))
        assert got == joined_tracks(tracklets).encode()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_streams(self, tmp_path, dim):
        empty = CameraStream.from_detections([])
        formats.write_detections(tmp_path / "d.csv", empty)
        formats.write_embeddings(tmp_path / "e.csv", empty, dim)
        formats.write_tracks_csv(tmp_path / "t.csv", [])
        assert (tmp_path / "d.csv").read_text() == joined_detections(empty)
        assert (tmp_path / "e.csv").read_text() == joined_embeddings(empty, dim)
        assert (tmp_path / "t.csv").read_text() == formats.TRACK_HEADER + "\n"

    def test_one_wide_embeddings(self, tmp_path):
        stream = CameraStream(
            frame=np.arange(5), det_id=np.zeros(5, dtype=np.int64), box=np.ones((5, 4)),
            confidence=np.full(5, 0.5), class_id=np.zeros(5, dtype=np.int64),
            embeddings=np.array([[0.1], [-2.5], [1e-7], [3.0], [123456789.5]]),
        )
        formats.write_embeddings(tmp_path / "e.csv", stream, 1)
        assert (tmp_path / "e.csv").read_text() == (
            "frame,det_id,e0\n0,0,0.1\n1,0,-2.5\n2,0,1e-07\n3,0,3\n4,0,123456790\n"
        )
        assert formats.read_embeddings(tmp_path / "e.csv").vectors.shape == (5, 1)


def traced_peak(write) -> int:
    """The most memory write() held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """A streamed write holds a block, not the file: the writers that built
    the whole text held about 2.5 times the file at their peak."""

    def test_results_json(self, tmp_path):
        rng = np.random.default_rng(3)
        camera_tracklets = {
            cam: [
                Tracklet(cam, tid, np.arange(tid, tid + 12), rng.uniform(1, 900, size=(12, 4)),
                         rng.uniform(0.3, 1.0, size=12))
                for tid in range(700)
            ]
            for cam in range(4)
        }
        clusters = [Cluster(global_id=tid + 1, members=[(cam, tid) for cam in range(4)])
                    for tid in range(700)]
        doc = formats.results_doc(camera_tracklets, clusters, {"euclidean": 700}, 48)
        path = tmp_path / "results.json"
        peak = traced_peak(lambda: formats.write_results_json(path, doc))
        size = path.stat().st_size
        assert size >= 4 << 20
        assert peak < size / 4, (peak, size)

    def test_embeddings_csv(self, tmp_path):
        n, dim = 3000, 128
        rng = np.random.default_rng(4)
        stream = CameraStream(
            frame=np.arange(n), det_id=np.zeros(n, dtype=np.int64), box=np.ones((n, 4)),
            confidence=np.full(n, 0.5), class_id=np.zeros(n, dtype=np.int64),
            embeddings=rng.normal(size=(n, dim)),
        )
        path = tmp_path / "embeddings.csv"
        peak = traced_peak(lambda: formats.write_embeddings(path, stream, dim))
        size = path.stat().st_size
        assert size >= 4 << 20
        assert peak < size / 4, (peak, size)


class TestWriteFailures:
    """A document or stream a writer rejects leaves an existing file as it was."""

    def test_results_with_a_wrong_unique_count(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("earlier results\n")
        before = path.stat().st_mtime_ns
        doc = formats.results_doc({}, [Cluster(global_id=1, members=[])], None, 0)
        doc["unique_count"] = 2
        with mock.patch("builtins.open", side_effect=AssertionError("opened")):
            with pytest.raises(ValueError, match="unique_count must equal"):
                formats.write_results_json(path, doc)
        assert path.read_text() == "earlier results\n"
        assert path.stat().st_mtime_ns == before

    def test_embeddings_of_the_wrong_shape(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        path.write_text("earlier embeddings\n")
        stream = CameraStream(
            frame=np.arange(2), det_id=np.zeros(2, dtype=np.int64), box=np.ones((2, 4)),
            confidence=np.full(2, 0.5), class_id=np.zeros(2, dtype=np.int64),
            embeddings=np.zeros((2, 3)),
        )
        with mock.patch("builtins.open", side_effect=AssertionError("opened")):
            with pytest.raises(formats.FormatError, match=r"expected a \(2, 4\) embedding"):
                formats.write_embeddings(path, stream, 4)
        assert path.read_text() == "earlier embeddings\n"
