"""File formats: detection/embedding CSVs, track CSVs, tracklet sidecars,
ground-truth JSON, and the results JSON.

All files are UTF-8 with LF line endings, '.' decimal separator, and floats
serialized with 9 significant digits; parse(serialize(x)) is the identity on
canonical files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .association import Cluster, mean_embedding
from .geometry import BoundingBox, Detection
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

_DETECTION_DTYPE = np.dtype([
    ("frame", np.int64),
    ("det_id", np.int64),
    ("box", np.float64, (4,)),
    ("confidence", np.float64),
    ("class_id", np.int64),
])

# A row check: a mask flagging the rows that fail it, and the error message
# for a flagged row index.
_Check = tuple[np.ndarray, Callable[[int], str]]


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """One detections file as columns, one entry per data row in file order.

    box rows are (x, y, w, h). (frame, det_id) is the key that joins a
    detection to its embedding row.
    """

    frame: np.ndarray  # (n,) int64
    det_id: np.ndarray  # (n,) int64
    box: np.ndarray  # (n, 4) float64
    confidence: np.ndarray  # (n,) float64
    class_id: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.frame)

    @classmethod
    def from_detections(cls, dets: Sequence[Detection]) -> "DetectionColumns":
        """Columns of a frame-sorted stream; det_ids count up from 0 within each frame."""
        det_ids = []
        counters: dict[int, int] = {}
        for d in dets:
            det_id = counters.get(d.frame, 0)
            counters[d.frame] = det_id + 1
            det_ids.append(det_id)
        return cls(
            frame=np.array([d.frame for d in dets], dtype=np.int64),
            det_id=np.array(det_ids, dtype=np.int64),
            box=np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets],
                         dtype=np.float64).reshape(-1, 4),
            confidence=np.array([d.confidence for d in dets], dtype=np.float64),
            class_id=np.array([d.class_id for d in dets], dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class EmbeddingColumns:
    """One embeddings file: row i of the C-contiguous (n, D) `vectors` matrix
    is the embedding keyed by (frame[i], det_id[i])."""

    frame: np.ndarray  # (n,) int64
    det_id: np.ndarray  # (n,) int64
    vectors: np.ndarray  # (n, D) float64

    def __len__(self) -> int:
        return len(self.frame)


def write_detections(path: str | Path, detections: DetectionColumns) -> None:
    lines = [DETECTION_HEADER]
    for frame, det_id, (x, y, w, h), conf, class_id in zip(
        detections.frame.tolist(),
        detections.det_id.tolist(),
        detections.box.tolist(),
        detections.confidence.tolist(),
        detections.class_id.tolist(),
    ):
        lines.append(
            f"{frame},{det_id},{fmt9(x)},{fmt9(y)},{fmt9(w)},{fmt9(h)},{fmt9(conf)},{class_id}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_detections(path: str | Path) -> DetectionColumns:
    if _read_header(path) != DETECTION_HEADER:
        raise FormatError(f"{path}:1: expected header '{DETECTION_HEADER}'")
    rows = _read_rows(path, _DETECTION_DTYPE, _detection_checks)
    return DetectionColumns(
        frame=rows["frame"],
        det_id=rows["det_id"],
        box=rows["box"],
        confidence=rows["confidence"],
        class_id=rows["class_id"],
    )


def _detection_checks(rows: np.ndarray) -> list[_Check]:
    box, conf, frame = rows["box"], rows["confidence"], rows["frame"]
    w, h = box[:, 2], box[:, 3]
    return [
        (~(np.isfinite(box).all(axis=1) & np.isfinite(conf)),
         lambda i: "non-finite box or confidence"),
        (~((conf >= 0.0) & (conf <= 1.0)),
         lambda i: f"confidence {conf[i].item()} outside [0, 1]"),
        ((w <= 0) | (h <= 0),
         lambda i: f"non-positive box size {w[i].item()}x{h[i].item()}"),
        (np.diff(frame, prepend=frame[:1]) < 0,
         lambda i: "frames must be sorted ascending"),
        _duplicate_check(rows),
    ]


def write_embeddings(
    path: str | Path, keyed: Sequence[tuple[int, int, np.ndarray]], dim: int
) -> None:
    header = "frame,det_id," + ",".join(f"e{i}" for i in range(dim))
    lines = [header]
    for frame, det_id, vec in keyed:
        if len(vec) != dim:
            raise FormatError(f"embedding for (frame={frame}, det_id={det_id}) has length "
                              f"{len(vec)}, expected {dim}")
        lines.append(f"{frame},{det_id}," + ",".join(fmt9(v) for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_embeddings(path: str | Path) -> EmbeddingColumns:
    header = _read_header(path)
    if not header.startswith("frame,det_id,"):
        raise FormatError(f"{path}:1: expected header 'frame,det_id,e0,...'")
    cols = header.split(",")[2:]
    if cols != [f"e{i}" for i in range(len(cols))] or not cols:
        raise FormatError(f"{path}:1: embedding columns must be e0..e{{D-1}}")
    dtype = np.dtype([("frame", np.int64), ("det_id", np.int64), ("e", np.float64, (len(cols),))])
    rows = _read_rows(path, dtype, _embedding_checks)
    return EmbeddingColumns(
        frame=rows["frame"], det_id=rows["det_id"], vectors=np.ascontiguousarray(rows["e"])
    )


def _embedding_checks(rows: np.ndarray) -> list[_Check]:
    return [
        (~np.isfinite(rows["e"]).all(axis=1), lambda i: "non-finite embedding value"),
        _duplicate_check(rows),
    ]


def merge_embeddings(
    detections: DetectionColumns, embeddings: Optional[EmbeddingColumns]
) -> list[Detection]:
    """Join detections with their embeddings; key sets must match.

    Each detection's embedding is a row view of one (n, D) matrix.
    """
    if embeddings is None:
        vectors: list[Optional[np.ndarray]] = [None] * len(detections)
    else:
        rows = _embedding_rows(detections, embeddings).tolist()
        vectors = [embeddings.vectors[i] for i in rows]
    return [
        Detection(
            frame=frame, box=BoundingBox(*box), confidence=conf, class_id=class_id,
            embedding=vec,
        )
        for frame, box, conf, class_id, vec in zip(
            detections.frame.tolist(),
            detections.box.tolist(),
            detections.confidence.tolist(),
            detections.class_id.tolist(),
            vectors,
        )
    ]


def _embedding_rows(detections: DetectionColumns, embeddings: EmbeddingColumns) -> np.ndarray:
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


def _loadtxt(source, dtype: np.dtype, skiprows: int = 0) -> np.ndarray:
    """Parse CSV rows (a path or a list of lines) into a 1-d structured array.

    Empty lines are skipped; '#' is data, not a comment. Integer fields must
    be integer literals: numpy < 2 parses "1.0" as an integer with a
    DeprecationWarning, raised here as an error as numpy >= 2 does.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        return np.loadtxt(
            source, delimiter=",", skiprows=skiprows, comments=None, ndmin=1, dtype=dtype,
            encoding="utf-8",
        )


def _read_rows(
    path: str | Path, dtype: np.dtype, checks: Callable[[np.ndarray], list[_Check]]
) -> np.ndarray:
    """Parse and check the data rows below a CSV header.

    A bad file is reported at its first bad row, as a line-by-line reader
    would: a row that fails to parse, or else the first row any check flags.
    """
    try:
        rows = _loadtxt(path, dtype, skiprows=1)
    except ValueError as exc:
        error = exc
    else:
        found = _first_problem(checks(rows))
        if found is None:
            return rows
        row, message = found
        raise FormatError(f"{path}:{_data_lines(path)[row][0]}: {message}")

    lines = _data_lines(path)
    texts = [text for _, text in lines]
    bad = _first_unparsable(texts, dtype)
    if bad is None:  # the lines parse one by one: report what numpy saw
        raise FormatError(f"{path}: {error}") from error
    found = _first_problem(checks(_loadtxt(texts[:bad], dtype)))
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


def _duplicate_check(rows: np.ndarray) -> _Check:
    """Check flagging each row whose (frame, det_id) key is on an earlier row."""
    frame, det_id = rows["frame"], rows["det_id"]
    order = np.lexsort((det_id, frame))  # stable: equal keys keep file order
    same = (frame[order][1:] == frame[order][:-1]) & (det_id[order][1:] == det_id[order][:-1])
    dup = np.zeros(len(rows), dtype=bool)
    dup[order[1:][same]] = True
    return dup, lambda i: f"duplicate key (frame={frame[i]}, det_id={det_id[i]})"


def _first_problem(checks: list[_Check]) -> Optional[tuple[int, str]]:
    """(row, message) of the first row any check flags, or None. On a tie the
    check listed first wins, so list checks in the order a row is checked."""
    found = None
    for mask, message in checks:
        hits = np.flatnonzero(mask)
        if hits.size and (found is None or hits[0] < found[0]):
            found = (int(hits[0]), message)
    if found is None:
        return None
    row, message = found
    return row, message(row)


# ----------------------------------------------------------------------
# Track CSV and tracklet sidecar


def write_tracks_csv(path: str | Path, tracklets: Sequence[Tracklet]) -> None:
    """Per-frame rows of confirmed tracks, sorted by (frame, track_id)."""
    rows = []
    for t in tracklets:
        for f, b, c in zip(t.frames, t.boxes, t.confidences):
            rows.append((f, t.track_id, b, c))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [TRACK_HEADER]
    for f, tid, b, c in rows:
        lines.append(f"{f},{tid},{fmt9(b.x)},{fmt9(b.y)},{fmt9(b.w)},{fmt9(b.h)},{fmt9(c)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def tracklet_sidecar_path(track_csv_path: str | Path) -> Path:
    p = Path(track_csv_path)
    return p.with_name(p.stem + ".tracklets.json")


def write_tracklets_json(path: str | Path, camera_id: int, tracklets: Sequence[Tracklet]) -> None:
    doc = {
        "camera_id": camera_id,
        "tracklets": [
            {
                "track_id": t.track_id,
                "frames": list(t.frames),
                "boxes": [[round9(b.x), round9(b.y), round9(b.w), round9(b.h)] for b in t.boxes],
                "confidences": [round9(c) for c in t.confidences],
                "mean_confidence": round9(t.mean_confidence),
                "mean_embedding": (
                    [round9(v) for v in mean_embedding(t)]
                    if (t.embeddings or t.pooled_embedding is not None)
                    else None
                ),
            }
            for t in tracklets
        ],
    }
    _write_json(path, doc)


def read_tracklets_json(path: str | Path) -> tuple[int, list[Tracklet]]:
    doc = read_json(path)
    try:
        camera_id = int(doc["camera_id"])
        tracklets = []
        for td in doc["tracklets"]:
            pooled = td.get("mean_embedding")
            if pooled is not None and not _is_number_list(pooled):
                raise FormatError(
                    f"{path}: track {td.get('track_id')!r}: mean_embedding must be null "
                    "or a non-empty list of numbers"
                )
            tracklets.append(
                Tracklet(
                    camera_id=camera_id,
                    track_id=int(td["track_id"]),
                    frames=[int(f) for f in td["frames"]],
                    boxes=[BoundingBox(*map(float, b)) for b in td["boxes"]],
                    confidences=[float(c) for c in td["confidences"]],
                    embeddings=[],
                    pooled_embedding=None if pooled is None else np.array(pooled, dtype=float),
                )
            )
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed tracklet file ({exc})") from exc
    return camera_id, tracklets


def _is_number_list(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(type(v) in (int, float) for v in value)
    )


# ----------------------------------------------------------------------
# Ground-truth JSON


def write_truth_json(path: str | Path, truth: GroundTruth) -> None:
    doc = {
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
    _write_json(path, doc)


@dataclass(eq=False)
class TruthFile:
    identity_count: int
    embeddings: Optional[np.ndarray]
    cameras: dict[int, dict[int, list[tuple[int, BoundingBox]]]]


def read_truth_json(path: str | Path) -> TruthFile:
    doc = read_json(path)
    try:
        cameras = {
            int(cam): {
                int(f): [
                    (int(e[0]), BoundingBox(float(e[1]), float(e[2]), float(e[3]), float(e[4])))
                    for e in entries
                ]
                for f, entries in frames.items()
            }
            for cam, frames in doc["cameras"].items()
        }
        embeddings = doc.get("embeddings")
        return TruthFile(
            identity_count=int(doc["identity_count"]),
            embeddings=None if embeddings is None else np.array(embeddings, dtype=float),
            cameras=cameras,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"{path}: malformed truth file ({exc})") from exc


# ----------------------------------------------------------------------
# Results JSON


def results_doc(
    camera_tracklets: Mapping[int, Sequence[Tracklet]],
    clusters: Sequence[Cluster],
    method_counts: Optional[Mapping[str, int]],
    frames_processed: int,
) -> dict:
    doc = {
        "cameras": [
            {
                "camera_id": cam,
                "tracklets": [
                    {
                        "track_id": t.track_id,
                        "frames": list(t.frames),
                        "boxes": [
                            [round9(b.x), round9(b.y), round9(b.w), round9(b.h)] for b in t.boxes
                        ],
                        "confidences": [round9(c) for c in t.confidences],
                    }
                    for t in camera_tracklets[cam]
                ],
            }
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
    return doc


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
    doc = read_json(path)
    try:
        camera_tracklets: dict[int, list[Tracklet]] = {}
        for cam_doc in doc["cameras"]:
            cam = int(cam_doc["camera_id"])
            camera_tracklets[cam] = [
                Tracklet(
                    camera_id=cam,
                    track_id=int(td["track_id"]),
                    frames=[int(f) for f in td["frames"]],
                    boxes=[BoundingBox(*map(float, b)) for b in td["boxes"]],
                    confidences=[float(c) for c in td["confidences"]],
                    embeddings=[],
                )
                for td in cam_doc["tracklets"]
            ]
        clusters = [
            Cluster(
                global_id=int(cd["global_id"]),
                members=[(int(m[0]), int(m[1])) for m in cd["members"]],
            )
            for cd in doc["clusters"]
        ]
        unique_count = int(doc["unique_count"])
    except (KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"{path}: malformed results file ({exc})") from exc
    if unique_count != len(clusters):
        raise FormatError(f"{path}: unique_count {unique_count} != {len(clusters)} clusters")
    return ResultsFile(
        camera_tracklets=camera_tracklets,
        clusters=clusters,
        unique_count=unique_count,
        method_counts=doc.get("method_counts"),
    )


def _write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


class _NonFiniteNumber(ValueError):
    """A JSON number that is not a finite float."""


def _reject_constant(name: str):
    raise _NonFiniteNumber(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _NonFiniteNumber(f"number {text} overflows a float")
    return value


def read_json(path: str | Path) -> dict:
    """Parse a JSON file, rejecting NaN, Infinity, -Infinity and float
    literals too large for a float (which would parse as infinity)."""
    try:
        return json.loads(
            Path(path).read_text(encoding="utf-8"),
            parse_constant=_reject_constant,
            parse_float=_finite_float,
        )
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    except _NonFiniteNumber as exc:
        raise FormatError(f"{path}: {exc}") from exc
