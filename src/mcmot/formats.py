"""File formats: detection/embedding CSVs, track CSVs, tracklet sidecars,
ground-truth JSON, and the results JSON.

All files are UTF-8 with LF line endings, '.' decimal separator, and floats
serialized with 9 significant digits; parse(serialize(x)) is the identity on
canonical files.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string_text
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .association import Cluster
from .geometry import (
    BoundingBox, CameraStream, Fault, detection_faults, embedding_fault, first_problem
)
from .refine import CountReport
from .sim import GroundTruth
from .tracker import Tracklet


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def fmt9(v: float) -> str:
    return format(float(v), ".9g")


def round9(v: float) -> float:
    return float(fmt9(v))


DETECTION_HEADER = "frame,det_id,x,y,w,h,confidence,class_id"
TRACK_HEADER = "frame,track_id,x,y,w,h,confidence"
# A data row of each file; '%.9g' writes a float as fmt9 does.
_DETECTION_ROW = "%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%d\n"
_TRACK_ROW = "%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n"

_DETECTION_DTYPE = np.dtype([
    ("frame", np.int64),
    ("det_id", np.int64),
    ("box", np.float64, (4,)),
    ("confidence", np.float64),
    ("class_id", np.int64),
])


@dataclass(frozen=True, eq=False)
class EmbeddingColumns:
    """One embeddings file: row i of the (n, D) `vectors` matrix is the
    embedding keyed by (frame[i], det_id[i]). All three are views into one
    parse buffer of (frame, det_id, e0..e{D-1}) records, so `vectors` is
    strided, not C-contiguous; no copy of the matrix is made."""

    frame: np.ndarray  # (n,) int64
    det_id: np.ndarray  # (n,) int64
    vectors: np.ndarray  # (n, D) float64

    def __len__(self) -> int:
        return len(self.frame)


def write_detections(path: str | Path, stream: CameraStream) -> None:
    _write_rows(
        path, DETECTION_HEADER,
        (stream.frame, stream.det_id, stream.box, stream.confidence, stream.class_id),
        lambda frame, det_id, box, conf, class_id:
            _DETECTION_ROW % (frame, det_id, *box, conf, class_id),
    )


def read_detections(path: str | Path) -> CameraStream:
    """One detections file as a stream without embeddings, one row per data
    row in file order."""
    if _read_header(path) != DETECTION_HEADER:
        raise FormatError(f"{path}:1: expected header '{DETECTION_HEADER}'")
    rows = _read_rows(path, _DETECTION_DTYPE, _detection_checks)
    return CameraStream(
        frame=rows["frame"],
        det_id=rows["det_id"],
        box=rows["box"],
        confidence=rows["confidence"],
        class_id=rows["class_id"],
    )


def _detection_checks(rows: np.ndarray) -> list[Fault]:
    frame = rows["frame"]
    return [
        *detection_faults(rows["box"], rows["confidence"]),
        (np.diff(frame, prepend=frame[:1]) < 0, lambda i: "frames must be sorted ascending"),
        _duplicate_check(rows),
    ]


def write_embeddings(path: str | Path, stream: CameraStream, dim: int) -> None:
    """The stream's embeddings, one row per detection keyed by (frame, det_id).
    The header declares `dim` columns, so a stream without rows keeps its D."""
    vectors = stream.embeddings if len(stream) else np.empty((0, dim))
    shape = None if vectors is None else vectors.shape
    if shape != (len(stream), dim):
        raise FormatError(f"expected a ({len(stream)}, {dim}) embedding matrix, got {shape}")
    row = "%d,%d," + ",".join(["%.9g"] * dim) + "\n"
    _write_rows(
        path, "frame,det_id," + ",".join(f"e{i}" for i in range(dim)),
        (stream.frame, stream.det_id, vectors),
        lambda frame, det_id, vec: row % (frame, det_id, *vec),
    )


def read_embeddings(path: str | Path) -> EmbeddingColumns:
    header = _read_header(path)
    if not header.startswith("frame,det_id,"):
        raise FormatError(f"{path}:1: expected header 'frame,det_id,e0,...'")
    cols = header.split(",")[2:]
    if cols != [f"e{i}" for i in range(len(cols))] or not cols:
        raise FormatError(f"{path}:1: embedding columns must be e0..e{{D-1}}")
    dtype = np.dtype([("frame", np.int64), ("det_id", np.int64), ("e", np.float64, (len(cols),))])
    rows = _read_rows(path, dtype, _embedding_checks)
    return EmbeddingColumns(frame=rows["frame"], det_id=rows["det_id"], vectors=rows["e"])


def _embedding_checks(rows: np.ndarray) -> list[Fault]:
    return [embedding_fault(rows["e"]), _duplicate_check(rows)]


def merge_embeddings(
    detections: CameraStream, embeddings: Optional[EmbeddingColumns]
) -> Optional[np.ndarray]:
    """The (n, D) embedding matrix whose row i is keyed like detection i, or
    None without embeddings; the key sets must match.

    When the file's rows are already in detection order, its own matrix is
    returned, not a copy.
    """
    if embeddings is None:
        return None
    rows = _embedding_rows(detections, embeddings)
    if np.array_equal(rows, np.arange(len(rows))):
        return embeddings.vectors
    return embeddings.vectors[rows]


def _embedding_rows(detections: CameraStream, embeddings: EmbeddingColumns) -> np.ndarray:
    """Row of `embeddings` keyed like each detection.

    Both key sets are sorted together; a key present in both sorts as a
    detection row directly followed by an embedding row (lexsort is stable).
    A key without a partner names the smallest offending key.
    """
    n = len(detections)
    frame = np.concatenate([detections.frame, embeddings.frame])
    det_id = np.concatenate([detections.det_id, embeddings.det_id])
    order = np.lexsort((det_id, frame))
    frame, det_id = frame[order], det_id[order]
    paired = (
        (frame[1:] == frame[:-1]) & (det_id[1:] == det_id[:-1])
        & (order[:-1] < n) & (order[1:] >= n)
    )
    alone = np.ones(len(order), dtype=bool)
    alone[1:] &= ~paired
    alone[:-1] &= ~paired
    missing = np.flatnonzero(alone & (order < n))
    if missing.size:
        i = missing[0]
        raise FormatError(f"detection (frame={frame[i]}, det_id={det_id[i]}) has no embedding")
    extra = np.flatnonzero(alone)
    if extra.size:
        i = extra[0]
        raise FormatError(
            f"embedding key (frame={frame[i]}, det_id={det_id[i]}) matches no detection"
        )
    rows = np.empty(n, dtype=np.intp)
    rows[order[:-1][paired]] = order[1:][paired] - n
    return rows


# ----------------------------------------------------------------------
# Columnar CSV parsing. The fast path is one np.loadtxt call plus vectorized
# checks; a file's lines are split out only to put a line number on an error.


def _read_header(path: str | Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def _line_bound(path: str | Path) -> int:
    """At least the number of lines in a file, whichever of '\n', '\r' and
    '\r\n' ends them: one more than its bytes up to 13 ('\r'), counted a
    block at a time.

    Given this as max_rows, np.loadtxt allocates its array once and trims it
    at the end. Without it the array grows block by block, and an outgrown
    block freed inside glibc's heap could stay resident through the parse,
    so the parse's peak RSS followed the heap's layout.
    """
    block = bytearray(1 << 16)
    lines = 1  # a last line without a line break
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            lines += int(np.count_nonzero(np.frombuffer(block, np.uint8, n) <= 13))
    return lines


def _loadtxt(
    source, dtype: np.dtype, skiprows: int = 0, max_rows: Optional[int] = None
) -> np.ndarray:
    """Parse CSV rows (a path or a list of lines) into a 1-d structured array.

    Empty lines are skipped; '#' is data, not a comment. Integer fields must
    be integer literals: numpy < 2 parses "1.0" as an integer with a
    DeprecationWarning, raised here as an error as numpy >= 2 does. At most
    max_rows rows are read.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        # Blank lines are skipped, and max_rows is a bound, not a count.
        warnings.filterwarnings("ignore", message="Input line .* contained no data")
        return np.loadtxt(
            source, delimiter=",", skiprows=skiprows, comments=None, ndmin=1, dtype=dtype,
            encoding="utf-8", max_rows=max_rows,
        )


def _read_rows(
    path: str | Path, dtype: np.dtype, checks: Callable[[np.ndarray], list[Fault]]
) -> np.ndarray:
    """Parse and check the data rows below a CSV header.

    A bad file is reported at its first bad row, as a line-by-line reader
    would: a row that fails to parse, or else the first row any check flags.
    """
    try:
        rows = _loadtxt(path, dtype, skiprows=1, max_rows=_line_bound(path))
    except ValueError as exc:
        error = exc
    else:
        found = first_problem(checks(rows))
        if found is None:
            return rows
        row, message = found
        raise FormatError(f"{path}:{_data_lines(path)[row][0]}: {message}")

    lines = _data_lines(path)
    texts = [text for _, text in lines]
    bad = _first_unparsable(texts, dtype)
    if bad is None:  # the lines parse one by one: report what numpy saw
        raise FormatError(f"{path}: {error}") from error
    found = first_problem(checks(_loadtxt(texts[:bad], dtype)))
    row, message = found if found is not None else (bad, _parse_problem(texts[bad], dtype))
    raise FormatError(f"{path}:{lines[row][0]}: {message}") from error


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number, text) of each data row: every non-empty line after the
    header, as np.loadtxt numbers its rows."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    return [(n, text) for n, text in enumerate(lines[1:], start=2) if text]


def _first_unparsable(texts: list[str], dtype: np.dtype) -> Optional[int]:
    """Index of the first line np.loadtxt rejects, or None. Lines parse
    independently, so a prefix parses iff it ends before that line."""
    if _parses(texts, dtype):
        return None
    good, bad = 0, len(texts)  # texts[:good] parses, texts[:bad] does not
    while bad - good > 1:
        mid = (good + bad) // 2
        if _parses(texts[:mid], dtype):
            good = mid
        else:
            bad = mid
    return good


def _parses(texts: list[str], dtype: np.dtype) -> bool:
    try:
        _loadtxt(texts, dtype)
    except ValueError:
        return False
    return True


def _parse_problem(text: str, dtype: np.dtype) -> str:
    """Why one line fails to parse: its field count, or its first bad field."""
    kinds = [
        dtype[name].base for name in dtype.names for _ in range(int(np.prod(dtype[name].shape)))
    ]
    fields = text.split(",")
    if len(fields) != len(kinds):
        return f"expected {len(kinds)} fields, got {len(fields)}"
    for field, kind in zip(fields, kinds):
        if not (field.strip() and _parses([field], kind)):
            what = "an integer" if kind.kind == "i" else "a number"
            return f"cannot parse {field!r} as {what}"
    return f"cannot parse {text!r}"


def _duplicate_check(rows: np.ndarray) -> Fault:
    """Check flagging each row whose (frame, det_id) key is on an earlier row."""
    frame, det_id = rows["frame"], rows["det_id"]
    order = np.lexsort((det_id, frame))  # stable: equal keys keep file order
    same = (frame[order][1:] == frame[order][:-1]) & (det_id[order][1:] == det_id[order][:-1])
    dup = np.zeros(len(rows), dtype=bool)
    dup[order[1:][same]] = True
    return dup, lambda i: f"duplicate key (frame={frame[i]}, det_id={det_id[i]})"


# ----------------------------------------------------------------------
# Track CSV and tracklet sidecar


def write_tracks_csv(path: str | Path, tracklets: Sequence[Tracklet]) -> None:
    """Per-frame rows of confirmed tracks, sorted by (frame, track_id)."""
    columns = ()
    if tracklets:
        frames = np.concatenate([t.frames for t in tracklets])
        track_ids = np.repeat([t.track_id for t in tracklets], [len(t) for t in tracklets])
        order = np.lexsort((track_ids, frames))  # stable, as one sort by (frame, track_id)
        columns = (
            frames[order], track_ids[order], np.concatenate([t.boxes for t in tracklets])[order],
            np.concatenate([t.confidences for t in tracklets])[order],
        )
    _write_rows(
        path, TRACK_HEADER, columns,
        lambda frame, track_id, box, conf: _TRACK_ROW % (frame, track_id, *box, conf),
    )


def tracklet_sidecar_path(track_csv_path: str | Path) -> Path:
    p = Path(track_csv_path)
    return p.with_name(p.stem + ".tracklets.json")


def write_tracklets_json(path: str | Path, camera_id: int, tracklets: Sequence[Tracklet]) -> None:
    doc = {
        "camera_id": camera_id,
        "tracklets": [
            {
                **_tracklet_doc(t),
                "mean_confidence": t.mean_confidence,
                "mean_embedding": t.embedding,
            }
            for t in tracklets
        ],
    }
    _write_json(path, doc)


def read_tracklets_json(path: str | Path) -> tuple[int, list[Tracklet]]:
    """A sidecar's camera and tracklets. Their boxes and confidences are
    left to check_tracklet_boxes, which `associate` calls after its check
    that no tracklet is in two sidecars."""
    doc = read_json(path)
    camera_id = _field(path, doc, "camera_id", int)
    tracklets = _tracklets_from_doc(path, camera_id, _field(path, doc, "tracklets", list))
    pooled = [t for t in tracklets if t.embedding is not None]
    if pooled:  # geometry.embedding_fault over every value, one value a row
        values = np.concatenate([t.embedding for t in pooled])[:, None]
        _check_groups(
            path, [embedding_fault(values)], [len(t.embedding) for t in pooled],
            lambda k: f"camera {camera_id}, track {pooled[k].track_id}", "mean_embedding entry",
        )
    return camera_id, tracklets


def _tracklet_doc(t: Tracklet) -> dict:
    """The keys a tracklet entry has in both sidecars and results files."""
    return {
        "track_id": t.track_id,
        "frames": t.frames,
        "boxes": t.boxes,
        "confidences": t.confidences,
    }


def check_tracklet_boxes(path: str | Path, tracklets: Sequence[Tracklet]) -> None:
    """The detection rules over every box and confidence of a document's
    tracklets, in one pass; FormatError names the first bad box."""
    if tracklets:
        box = np.concatenate([t.boxes for t in tracklets])
        _check_groups(
            path, detection_faults(box, np.concatenate([t.confidences for t in tracklets])),
            [len(t) for t in tracklets],
            lambda k: f"camera {tracklets[k].camera_id}, track {tracklets[k].track_id}", "box",
        )


def _check_groups(
    path: str | Path, faults: list[Fault], sizes: list[int], place: Callable[[int], str],
    item: str,
) -> None:
    """Rules over a document's rows, which come in groups of the given
    sizes: a failure names the place of the group (place(k) for group k) and
    the row's index within it."""
    found = first_problem(faults)
    if found is not None:
        row, message = found
        ends = np.cumsum(sizes)
        k = int(np.searchsorted(ends, row, side="right"))
        raise FormatError(f"{path}: {place(k)}: {item} {row - ends[k] + sizes[k]}: {message}")


def _tracklets_from_doc(path: str | Path, camera_id: int, entries: list) -> list[Tracklet]:
    """One camera's tracklet entries; a track_id may appear once."""
    tracklets = [_tracklet_from_doc(path, camera_id, entry) for entry in entries]
    seen: set[int] = set()
    for t in tracklets:
        if t.track_id in seen:
            raise FormatError(f"{path}: camera {camera_id}: track {t.track_id} is listed twice")
        seen.add(t.track_id)
    return tracklets


def _tracklet_from_doc(path: str | Path, camera_id: int, entry) -> Tracklet:
    """One tracklet entry of a sidecar or results file.

    track_id and frames are JSON integers, at least one frame; boxes (4
    numbers each) and confidences come one per frame. A sidecar's mean_embedding is null or a
    non-empty list of numbers; mean_confidence is derived, so it is not read.
    """
    where = f"{path}: camera {camera_id}"
    _typed(f"{where}: a tracklet entry", entry, dict)
    track_id = _field(where, entry, "track_id", int)
    where = f"{where}, track {track_id}"
    frames, boxes, confidences = (
        _field(where, entry, key, list) for key in ("frames", "boxes", "confidences")
    )
    if not 0 < len(frames) == len(boxes) == len(confidences):
        raise FormatError(
            f"{where}: frames, boxes and confidences must have one non-zero length, got "
            f"{len(frames)}, {len(boxes)} and {len(confidences)}"
        )
    if not _INT_TYPE.issuperset(map(type, frames)):
        for f in frames:
            _typed(f"{where}: frame", f, int)
    boxes = _number_rows(where, "box", boxes, 4)
    confidences = _numbers(where, "confidences", confidences, len(confidences))
    pooled = entry.get("mean_embedding")
    embedding = None if pooled is None else np.array(_numbers(where, "mean_embedding", pooled))
    try:
        frames = np.array(frames, dtype=np.int64)
    except OverflowError:
        f = next(f for f in frames if not _INT64_MIN <= f <= _INT64_MAX)
        raise FormatError(f"{where}: frame {f} is outside the 64-bit integer range") from None
    return Tracklet(
        camera_id=camera_id,
        track_id=track_id,
        frames=frames,
        boxes=boxes,
        confidences=confidences,
        embedding=embedding,
    )


# ----------------------------------------------------------------------
# Ground-truth JSON


def write_truth_json(path: str | Path, truth: GroundTruth) -> None:
    doc = {
        "identity_count": truth.identity_count,
        "embeddings": np.asarray(truth.embeddings, dtype=np.float64),
        "cameras": {
            str(cam): {
                str(f): [
                    [identity, float(b.x), float(b.y), float(b.w), float(b.h)]
                    for identity, b in entries
                ]
                for f, entries in enumerate(frames)
            }
            for cam, frames in sorted(truth.boxes.items())
        },
    }
    _write_json(path, doc)


@dataclass(eq=False)
class TruthFile:
    identity_count: int
    embeddings: Optional[np.ndarray]
    cameras: dict[int, dict[int, list[tuple[int, BoundingBox]]]]


def read_truth_json(path: str | Path) -> TruthFile:
    """Camera and frame keys are decimal integer strings; identities are
    JSON integers."""
    doc = read_json(path)
    identity_count = _field(path, doc, "identity_count", int)
    cameras: dict[int, dict[int, list[tuple[int, BoundingBox]]]] = {}
    for cam_key, frames in _field(path, doc, "cameras", dict).items():
        cam = int_key(path, "camera", cam_key)
        where = f"{path}: camera {cam}"
        cameras[cam] = {
            int_key(where, "frame", f_key): [
                _truth_entry(f"{where}, frame {f_key}", e)
                for e in _typed(f"{where}, frame {f_key}", entries, list)
            ]
            for f_key, entries in _typed(where, frames, dict).items()
        }
    embeddings = doc.get("embeddings")
    if embeddings is not None:
        rows = [_numbers(path, "embeddings", row) for row in _typed(path, embeddings, list)]
        if len({len(row) for row in rows}) > 1:
            raise FormatError(f"{path}: embeddings rows differ in length")
        embeddings = np.array(rows, dtype=float)
    groups = [(cam, f, entries) for cam, frames in cameras.items()
              for f, entries in frames.items() if entries]
    box = np.array([(b.x, b.y, b.w, b.h) for _, _, entries in groups for _, b in entries])
    # A truth box has no confidence: a valid one stands in.
    _check_groups(path, detection_faults(box.reshape(-1, 4), np.ones(len(box))),
                  [len(g[2]) for g in groups],
                  lambda k: f"camera {groups[k][0]}, frame {groups[k][1]}", "box")
    return TruthFile(identity_count=identity_count, embeddings=embeddings, cameras=cameras)


def _truth_entry(where: str, entry) -> tuple[int, BoundingBox]:
    if not (type(entry) is list and len(entry) == 5 and type(entry[0]) is int):
        raise FormatError(
            f"{where}: an entry must be [identity, x, y, w, h] with an integer identity, "
            f"got {_show(entry)}"
        )
    return entry[0], BoundingBox(*_numbers(where, "box", entry[1:], 4))


# ----------------------------------------------------------------------
# Results JSON


def results_doc(
    camera_tracklets: Mapping[int, Sequence[Tracklet]],
    clusters: Sequence[Cluster],
    method_counts: Optional[Mapping[str, int]],
    frames_processed: int,
) -> dict:
    return {
        "cameras": [
            {"camera_id": cam, "tracklets": [_tracklet_doc(t) for t in camera_tracklets[cam]]}
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


def count_report_doc(report: CountReport) -> dict:
    return {
        "per_set_predicted": list(report.per_set_predicted),
        "per_set_truth": list(report.per_set_truth),
        "l2_error": round9(report.l2_error),
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "accuracy": None if report.accuracy is None else round9(report.accuracy),
        "recall": None if report.recall is None else round9(report.recall),
        "f1": None if report.f1 is None else round9(report.f1),
    }


def write_results_json(path: str | Path, doc: dict) -> None:
    if doc["unique_count"] != len(doc["clusters"]):
        raise ValueError("unique_count must equal the number of clusters listed")
    _write_json(path, doc)


@dataclass(eq=False)
class ResultsFile:
    camera_tracklets: dict[int, list[Tracklet]]
    clusters: list[Cluster]
    unique_count: int
    method_counts: Optional[dict[str, int]]


def read_results_json(path: str | Path) -> ResultsFile:
    """Ids are JSON integers; a camera_id, and a track_id within a camera,
    may appear once; each cluster member is a listed tracklet in one cluster."""
    doc = read_json(path)
    camera_tracklets: dict[int, list[Tracklet]] = {}
    for cam_doc in _field(path, doc, "cameras", list):
        cam = _field(f"{path}: a cameras entry", cam_doc, "camera_id", int)
        if cam in camera_tracklets:
            raise FormatError(f"{path}: camera {cam} is listed twice")
        entries = _field(f"{path}: camera {cam}", cam_doc, "tracklets", list)
        camera_tracklets[cam] = _tracklets_from_doc(path, cam, entries)
    listed = {(cam, t.track_id) for cam, tls in camera_tracklets.items() for t in tls}
    owner: dict[tuple[int, int], int] = {}
    clusters = []
    for cd in _field(path, doc, "clusters", list):
        gid = _field(f"{path}: a clusters entry", cd, "global_id", int)
        members = []
        for m in _field(f"{path}: cluster {gid}", cd, "members", list):
            if not (type(m) is list and len(m) == 2 and all(type(v) is int for v in m)):
                raise FormatError(
                    f"{path}: cluster {gid}: a member must be [camera_id, track_id] integers, "
                    f"got {_show(m)}"
                )
            key = (m[0], m[1])
            if key not in listed:
                raise FormatError(
                    f"{path}: cluster {gid}: member (camera {key[0]}, track {key[1]}) "
                    "is not a listed tracklet"
                )
            if key in owner:
                raise FormatError(
                    f"{path}: cluster {gid}: member (camera {key[0]}, track {key[1]}) "
                    f"is also in cluster {owner[key]}"
                )
            owner[key] = gid
            members.append(key)
        clusters.append(Cluster(global_id=gid, members=members))
    unique_count = _field(path, doc, "unique_count", int)
    if unique_count != len(clusters):
        raise FormatError(f"{path}: unique_count {unique_count} != {len(clusters)} clusters")
    check_tracklet_boxes(path, [t for tls in camera_tracklets.values() for t in tls])
    return ResultsFile(
        camera_tracklets=camera_tracklets,
        clusters=clusters,
        unique_count=unique_count,
        method_counts=doc.get("method_counts"),
    )


# ----------------------------------------------------------------------
# Writing files. Every writer sends its text to one _Sink, which writes it
# to the open file in blocks, so what a write holds does not grow with the
# file: a CSV writer formats a block of rows at a time, and the JSON encoder
# an array's rows a block at a time.

_BLOCK = 1 << 14  # characters a _Sink holds before it writes them out
_BLOCK_VALUES = 1 << 12  # numbers formatted at a time


class _Sink:
    """Text bound for an open file. `append` takes a string, as a list's
    does; once _BLOCK characters are held, they are written out."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self._parts: list[str] = []
        self._size = 0

    def append(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _BLOCK:
            self.flush()

    def flush(self) -> None:
        self._fh.write("".join(self._parts))
        self._parts.clear()
        self._size = 0


@contextmanager
def _sink(path: str | Path) -> Iterator[_Sink]:
    """A sink writing `path` as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        sink = _Sink(fh)
        yield sink
        sink.flush()


def _write_rows(
    path: str | Path, header: str, columns: Sequence[np.ndarray], line: Callable[..., str]
) -> None:
    """A CSV file: the header line, then line(*values) for each row of the
    row-aligned columns, given the row's values as Python objects. Rows are
    converted and formatted about _BLOCK_VALUES numbers at a time."""
    n = len(columns[0]) if columns else 0
    step = max(1, _BLOCK_VALUES * n // max(sum(c.size for c in columns), 1))
    with _sink(path) as out:
        out.append(header + "\n")
        for start in range(0, n, step):
            out.append("".join(map(line, *(c[start:start + step].tolist() for c in columns))))


def _write_json(path: str | Path, doc: dict) -> None:
    with _sink(path) as out:
        _encode(doc, "\n", out)
        out.append("\n")


def json_text(doc) -> str:
    """doc as JSON with 2-space indentation and sorted keys, each float, also
    a float array element, at 9 significant digits.

    The text equals json.dumps(doc, indent=2, sort_keys=True) for the same
    document with every numpy array as nested lists and every float v
    replaced by round9(v). Object keys are strings; values are dicts, lists,
    tuples, numpy arrays, str, int, float, bool or None.
    """
    parts: list[str] = []
    _encode(doc, "\n", parts)
    return "".join(parts)


def _encode(value, newline: str, parts: list[str] | _Sink) -> None:
    """Append value's JSON text to `parts`; `newline` is a line break plus
    the indentation of the line value starts on."""
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        for i, key in enumerate(sorted(value)):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(("," if i else "{") + inner + _string_text(key) + ": ")
            _encode(value[key], inner, parts)
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        for i, item in enumerate(value):
            parts.append(("," if i else "[") + inner)
            _encode(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.dtype.kind in "fiu":
        _encode_array(value, newline, parts)
    elif isinstance(value, np.ndarray):
        _encode(value.tolist(), newline, parts)
    else:
        parts.append(_scalar_text(value))


def _encode_array(a: np.ndarray, newline: str, parts: list[str] | _Sink) -> None:
    """Append a 1-d or 2-d int or float array as nested JSON lists, a block
    of about _BLOCK_VALUES numbers at a time."""
    if not len(a):
        parts.append("[]")
        return
    inner = newline + "  "
    step = max(1, _BLOCK_VALUES * len(a) // max(a.size, 1))
    for start in range(0, len(a), step):
        parts.append(("," if start else "[") + inner + _items_text(a[start:start + step], inner))
    parts.append(newline + "]")


def _items_text(a: np.ndarray, inner: str) -> str:
    """The JSON texts of a non-empty array's items, each starting on its
    own line (`inner` is the line break and the items' indentation)."""
    values = a.ravel().tolist()
    if a.dtype.kind == "f":
        text = _items_layout(a.shape, inner, "%.9g") % tuple(values)
        # With a '.' in every number (a '.9g' text has at most one; NaN and
        # inf have none) and no exponent, each is already its float's repr.
        if text.count(".") == len(values) and "e" not in text:
            return text
        values = _float_texts(values)
    return _items_layout(a.shape, inner, "%s") % tuple(values)


def _items_layout(shape: tuple[int, ...], inner: str, slot: str) -> str:
    """_items_text with a %-format slot per number."""
    item = slot
    if len(shape) == 2:
        item = "[" + inner + "  " + ("," + inner + "  ").join([slot] * shape[1]) + inner + "]"
        if not shape[1]:
            item = "[]"
    return ("," + inner).join([item] * shape[0])


def _float_texts(values: list[float]) -> list[str]:
    """json's text of round9(v) for each v. A 9-significant-digit text with
    a '.' and no exponent is already the shortest repr of its float."""
    return [
        s if "." in s and "e" not in s else _float_repr(float(s))
        for s in map("%.9g".__mod__, values)
    ]


def _float_repr(v: float) -> str:
    """A float as json writes it."""
    if v != v:
        return "NaN"
    if v in (math.inf, -math.inf):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return _string_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_texts([value])[0]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows a float")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_json(path: str | Path) -> dict:
    """Parse a JSON file, rejecting NaN, Infinity, -Infinity, float literals
    too large for a float (which would parse as infinity) and an object
    that repeats a key (json keeps the last silently)."""
    try:
        return json.loads(
            Path(path).read_text(encoding="utf-8"),
            object_pairs_hook=_unique_keys,
            parse_constant=_reject_constant,
            parse_float=_finite_float,
        )
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # a number hook, or text that is not UTF-8
        raise FormatError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Typed access to parsed JSON values. A JSON integer is a Python int, never
# a bool; a JSON number is an int or a float.

_KIND_NAMES = {int: "an integer", list: "a list", dict: "an object"}
_INT_TYPE = frozenset((int,))
_NUMBER_TYPES = frozenset((int, float))
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _typed(what: str, value, kind: type):
    """value, which must be of the given JSON kind (int, list or dict)."""
    if type(value) is not kind:
        raise FormatError(f"{what} must be {_KIND_NAMES[kind]}, got {_show(value)}")
    return value


def _field(where: str, obj, key: str, kind: type):
    """obj[key], where obj must be a JSON object holding key."""
    _typed(where, obj, dict)
    if key not in obj:
        raise FormatError(f"{where}: missing key {key!r}")
    return _typed(f"{where}: {key}", obj[key], kind)


def _numbers(where: str, name: str, value, length: Optional[int] = None) -> list[float]:
    """A JSON list of numbers, as floats: `length` of them, or at least one."""
    if (
        type(value) is list
        and (len(value) == length if length is not None else len(value) > 0)
        and _NUMBER_TYPES.issuperset(map(type, value))
    ):
        try:
            return list(map(float, value))
        except OverflowError:  # an integer literal beyond the float range
            pass
    count = "a non-empty list of" if length is None else f"a list of {length}"
    raise FormatError(f"{where}: {name} must be {count} numbers, got {_show(value)}")


def _number_rows(where: str, name: str, rows: list, width: int) -> np.ndarray:
    """A JSON list of lists of `width` numbers, as an (n, width) float array;
    the first bad row is reported as _numbers reports it."""
    try:
        if all(type(row) is list and len(row) == width for row in rows) and (
            _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows)))
        ):
            return np.array(rows, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        pass
    return np.array([_numbers(where, name, row, width) for row in rows])


def int_key(where: str | Path, what: str, key: str) -> int:
    """A key naming an integer id (a JSON object key, or the K of a file
    named like detections_cam<K>.csv), in canonical decimal form."""
    if _INT_KEY.fullmatch(key):
        try:
            return int(key)
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(f"{where}: {what} key {_show(key)} must be a decimal integer")


def _show(value) -> str:
    """A parsed JSON value as an error message quotes it, cut to 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."
