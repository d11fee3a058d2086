"""The JSON writer against json.dumps.

`formats.json_text` renders results files, tracklet sidecars and truth
files. Its oracle is json.dumps(doc, indent=2, sort_keys=True) of the same
document with every numpy array as lists and every float rounded by
`formats.round9`; the file writers' oracles are the document builders that
produced that form one number at a time.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot import formats
from mcmot.association import Cluster
from mcmot.geometry import BoundingBox
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
