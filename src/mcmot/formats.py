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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string_text
from pathlib import Path
from typing import Callable, Mapping, NoReturn, Optional, Sequence

import numpy as np

from .association import METHODS, Cluster
from .geometry import (
    BoundingBox, CameraStream, Fault, detection_faults, embedding_fault, first_problem
)
from .refine import ConfusionCounts, l2_count_error
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
    """One embeddings file: `frame` and `det_id` hold every row's key in
    file order, and `vectors` the (n, D) embeddings read_embeddings kept:
    row i is keyed (frame[i], det_id[i]) when every row's was kept."""

    frame: np.ndarray  # (rows,) int64
    det_id: np.ndarray  # (rows,) int64
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
    blocks: list[np.ndarray] = []
    _read_rows(path, _DETECTION_DTYPE, _detection_faults, blocks.append, sorted_frames=True)
    rows = np.concatenate(blocks)
    return CameraStream(
        frame=rows["frame"],
        det_id=rows["det_id"],
        box=rows["box"],
        confidence=rows["confidence"],
        class_id=rows["class_id"],
    )


def _detection_faults(rows: np.ndarray) -> list[Fault]:
    return detection_faults(rows["box"], rows["confidence"])


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


def read_embeddings(
    path: str | Path, detections: Optional[CameraStream] = None,
    rows: Optional[np.ndarray] = None,
) -> EmbeddingColumns:
    """An embeddings file, read a block of rows at a time.

    Without detections, every row's embedding is kept, in file order. With
    them, the file's keys must be the detections' (the join merge_embeddings
    runs, its errors prefixed with the path), and only the embeddings of
    detections `rows` (default: all) are kept: vectors[i] is that of
    detection rows[i]. A camera that tracks a fraction of its detections
    then never holds the file's matrix. `rows` must be distinct indices of
    detections, and comes only with them, or ValueError is raised before the
    file is read.
    """
    if detections is None and rows is not None:
        raise ValueError("rows must come with detections: without them every row is kept")
    if detections is not None:
        n = len(detections)
        rows = np.arange(n) if rows is None else np.asarray(rows)
        if rows.ndim != 1 or rows.size and (rows.dtype.kind not in "iu"
                                            or not -n <= rows.min() <= rows.max() < n):
            raise ValueError(f"rows must be a 1-d array of integer indices in [-{n}, {n})")
        slot = np.full(n + 1, -1)  # each detection's place in rows, or -1; slot[n] is -1
        slot[:n][rows.astype(np.intp)] = np.arange(len(rows))
        if np.count_nonzero(slot >= 0) < len(rows):
            raise ValueError("rows must not name a detection twice")
    header = _read_header(path)
    if not header.startswith("frame,det_id,"):
        raise FormatError(f"{path}:1: expected header 'frame,det_id,e0,...'")
    cols = header.split(",")[2:]
    if cols != [f"e{i}" for i in range(len(cols))] or not cols:
        raise FormatError(f"{path}:1: embedding columns must be e0..e{{D-1}}")
    dtype = np.dtype([("frame", np.int64), ("det_id", np.int64), ("e", np.float64, (len(cols),))])
    if detections is None:
        blocks: list[np.ndarray] = []
        frame, det_id = _read_rows(path, dtype, _embedding_faults,
                                   lambda block: blocks.append(block["e"].copy()))
        return EmbeddingColumns(frame=frame, det_id=det_id, vectors=np.concatenate(blocks))

    index = _key_index(detections.frame, detections.det_id)
    vectors = np.empty((len(rows), len(cols)))
    found: list[np.ndarray] = []  # each row's detection

    def keep(block: np.ndarray) -> None:
        at = index(block["frame"], block["det_id"])
        found.append(at)
        to = slot[at]  # a row of no detection (at == -1) reads slot[-1] == -1
        hit = to >= 0
        vectors[to[hit]] = block["e"][hit]

    frame, det_id = _read_rows(path, dtype, _embedding_faults, keep)
    _check_join(detections, frame, det_id, np.concatenate(found), f"{path}: ")
    return EmbeddingColumns(frame=frame, det_id=det_id, vectors=vectors)


def _embedding_faults(rows: np.ndarray) -> list[Fault]:
    return [embedding_fault(rows["e"])]


def merge_embeddings(
    detections: CameraStream, embeddings: Optional[EmbeddingColumns]
) -> Optional[np.ndarray]:
    """The (n, D) embedding matrix whose row i is keyed like detection i, or
    None without embeddings; the key sets must match. `embeddings` holds
    every row's vector (read_embeddings without detections). When its rows
    are already in detection order, its own matrix is returned, not a copy.
    """
    if embeddings is None:
        return None
    at = _key_index(detections.frame, detections.det_id)(embeddings.frame, embeddings.det_id)
    _check_join(detections, embeddings.frame, embeddings.det_id, at)
    if np.array_equal(at, np.arange(len(at))):
        return embeddings.vectors
    return embeddings.vectors[np.argsort(at)]  # at is a permutation: argsort inverts it


def _check_join(detections: CameraStream, frame: np.ndarray, det_id: np.ndarray,
                at: np.ndarray, where: str = "") -> None:
    """FormatError, after `where`, unless the rows keyed (frame, det_id),
    which _key_index found at detections `at` (-1: none), match the
    detections one to one. It names the smallest key of a detection no row
    matched; else that of a row that matched none, or one another row did.
    """
    hits = np.bincount(at + 1, minlength=len(detections) + 1)  # at + 1: -1 never wraps
    for bad, f, d, text in (
        (hits[1:] == 0, detections.frame, detections.det_id, "detection ({}) has no embedding"),
        ((at < 0) | (hits[at + 1] > 1), frame, det_id, "embedding key ({}) matches no detection"),
    ):
        if bad.any():
            f, d = f[bad], d[bad]
            i = np.lexsort((d, f))[0]
            raise FormatError(where + text.format(f"frame={f[i]}, det_id={d[i]}"))


def _key_index(
    frame: np.ndarray, det_id: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """For the keys (frame[j], det_id[j]): a function that maps key columns
    to the index j of each key, or -1 for a key not among them. A key held
    by more than one j (a stream given through the API may repeat one) maps
    to one of them.

    A key's code is the place of its frame among the sorted frames times
    one more than the number of keys, plus the place of its det_id among
    the sorted det_ids; a looked-up key's code is found by binary search,
    then its key compared. (np.sort, not np.unique: numpy 2's hashing
    np.unique costs about 6 ms on its first call in a process.)
    """
    frames, det_ids = np.sort(frame), np.sort(det_id)

    def code(f: np.ndarray, d: np.ndarray) -> np.ndarray:
        return np.searchsorted(frames, f) * (len(det_ids) + 1) + np.searchsorted(det_ids, d)

    codes = code(frame, det_id)
    order = np.argsort(codes)
    codes = codes[order]

    def index(f: np.ndarray, d: np.ndarray) -> np.ndarray:
        if not len(codes):
            return np.full(len(f), -1)
        j = order[np.minimum(np.searchsorted(codes, code(f, d)), len(codes) - 1)]
        return np.where((frame[j] == f) & (det_id[j] == d), j, -1)

    return index


# ----------------------------------------------------------------------
# Columnar CSV parsing. A file is parsed a block of rows at a time, each block
# by one np.loadtxt call on the open file and checked by vectorized rules; a
# file's lines are split out only to put a line number on an error.

_READ_BLOCK = 1 << 18  # bytes of parsed rows in a block
# Lines parsed at a time on a bad file's error path.
_ERROR_BLOCK = 128


def _block_rows(dtype: np.dtype) -> int:
    """Rows parsed at a time: about _READ_BLOCK bytes of them."""
    return max(1, _READ_BLOCK // dtype.itemsize)


def _read_header(path: str | Path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readline().rstrip("\n")
    except UnicodeDecodeError:
        _check_utf8(path)
        raise


def _loadtxt(source, dtype: np.dtype, max_rows: Optional[int] = None) -> np.ndarray:
    """Parse CSV rows (an open file or a list of lines) into a 1-d
    structured array.

    Empty lines are skipped; '#' is data, not a comment. Integer fields must
    be integer literals: numpy < 2 parses "1.0" as an integer with a
    DeprecationWarning, raised here as an error as numpy >= 2 does. At most
    max_rows rows are read, and an open file is left at the line after the
    last of them.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        # Blank lines are skipped, and max_rows is a bound, not a count.
        warnings.filterwarnings("ignore", message="Input line .* contained no data")
        return np.loadtxt(
            source, delimiter=",", comments=None, ndmin=1, dtype=dtype, encoding="utf-8",
            max_rows=max_rows,
        )


def _read_rows(
    path: str | Path, dtype: np.dtype, faults: Callable[[np.ndarray], list[Fault]],
    take: Callable[[np.ndarray], object], sorted_frames: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Parse and check the data rows below a CSV header, _block_rows(dtype)
    rows at a time, and hand each block (the last may be empty) to take.
    Returns every row's frame and det_id.

    faults(rows) gives the rules of a row on its own, and run on each
    block. The rules of the keys run on all of them at the end: frames
    sorted ascending (when sorted_frames), and no key twice. A bad file is
    reported at its first bad row by _report_bad_row.
    """
    size = _block_rows(dtype)
    frames: list[np.ndarray] = []
    det_ids: list[np.ndarray] = []
    error = None
    try:
        with open(path, encoding="utf-8") as fh:
            fh.readline()  # the header
            while True:
                rows = _loadtxt(fh, dtype, max_rows=size)
                if first_problem(faults(rows)) is not None:
                    break
                frames.append(rows["frame"].copy())
                det_ids.append(rows["det_id"].copy())
                take(rows)
                if len(rows) < size:
                    frame, det_id = np.concatenate(frames), np.concatenate(det_ids)
                    if first_problem(_key_faults(frame, det_id, sorted_frames)) is None:
                        return frame, det_id
                    break
    except ValueError as exc:  # a row numpy rejects, or bytes that are not UTF-8
        error = exc
    _report_bad_row(path, dtype, faults, sorted_frames, frames, det_ids, error)


def _key_faults(frame: np.ndarray, det_id: np.ndarray, sorted_frames: bool) -> list[Fault]:
    """The rules of a file's keys, in the order a row is checked: frames
    sorted ascending (when sorted_frames), then no key on an earlier row."""
    order = np.lexsort((det_id, frame))  # stable: equal keys keep file order
    same = (frame[order][1:] == frame[order][:-1]) & (det_id[order][1:] == det_id[order][:-1])
    dup = np.zeros(len(frame), dtype=bool)
    dup[order[1:][same]] = True
    faults = [(dup, lambda i: f"duplicate key (frame={frame[i]}, det_id={det_id[i]})")]
    if sorted_frames:
        faults.insert(0, (np.diff(frame, prepend=frame[:1]) < 0,
                          lambda i: "frames must be sorted ascending"))
    return faults


def _report_bad_row(
    path: str | Path, dtype: np.dtype, faults: Callable[[np.ndarray], list[Fault]],
    sorted_frames: bool, frames: list[np.ndarray], det_ids: list[np.ndarray],
    error: Optional[ValueError],
) -> NoReturn:
    """FormatError for the first bad row of a file _read_rows rejected, as a
    line-by-line reader would name it: a row that fails to parse, or else
    the first row a rule flags (a row's own rules before its keys'), with
    its line number. A file that is not UTF-8 is reported as such first.

    frames and det_ids hold the keys of the blocks _read_rows accepted. The
    data lines above the rejected block (non-empty, as Path.read_text splits
    the text) are counted, not parsed. Only that block's lines are parsed:
    its rows get the row rules, and its keys the key rules with the held ones.
    """
    _check_utf8(path)
    held, size = sum(map(len, frames)), _block_rows(dtype)
    data, blanks, texts = 0, [], []  # blanks: per blank line, the data lines above it
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # the header
        for line in fh:
            if line == "\n":
                blanks.append(data)
                continue
            if data >= held:
                texts.append(line.removesuffix("\n"))
                if len(texts) == size:
                    break
            data += 1
    rows, bad = _first_unparsable(texts, dtype)
    own = first_problem(faults(rows))
    found = first_problem(_key_faults(np.concatenate([*frames, rows["frame"]]),
                                      np.concatenate([*det_ids, rows["det_id"]]), sorted_frames))
    if own is not None and (found is None or held + own[0] <= found[0]):
        found = held + own[0], own[1]
    if found is None and bad is not None:
        found = held + bad, _parse_problem(texts[bad], dtype)
    if found is None:  # the lines parse one by one and keep the rules: report what numpy saw
        raise FormatError(f"{path}: {error}") from error
    row, message = found
    number = 2 + row + np.searchsorted(blanks, row, side="right")  # below the header and blanks
    raise FormatError(f"{path}:{number}: {message}") from error


def _first_unparsable(texts: list[str], dtype: np.dtype) -> tuple[np.ndarray, Optional[int]]:
    """The rows of the lines above the first that numpy rejects alone, and
    that line's index (every line's row and None when all parse). The lines
    parse _ERROR_BLOCK at a time, and a piece that fails line by line."""
    rows = np.empty(len(texts), dtype)
    for start in range(0, len(texts), _ERROR_BLOCK):
        piece = texts[start:start + _ERROR_BLOCK]
        try:
            rows[start:start + len(piece)] = _loadtxt(piece, dtype)
        except ValueError:
            for bad, text in enumerate(piece, start):
                try:
                    rows[bad:bad + 1] = _loadtxt([text], dtype)
                except ValueError:
                    return rows[:bad], bad
    return rows, None


def _check_utf8(path: str | Path) -> None:
    """FormatError, for a file that is not UTF-8, before any of its rows is
    reported: the path, then the message of the UnicodeDecodeError that
    reading its whole text raises, whose position counts from the file's
    start. The file is decoded a block at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            while fh.read(1 << 20):
                pass
    except UnicodeDecodeError:
        try:
            Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None
        raise


def _parse_problem(text: str, dtype: np.dtype) -> str:
    """Why one line fails to parse: its field count, or its first bad field."""
    kinds = [
        dtype[name].base for name in dtype.names for _ in range(int(np.prod(dtype[name].shape)))
    ]
    fields = text.split(",")
    if len(fields) != len(kinds):
        return f"expected {len(kinds)} fields, got {len(fields)}"
    for field, kind in zip(fields, kinds):
        try:
            if field.strip():
                _loadtxt([field], kind)
                continue
        except ValueError:
            pass
        what = "an integer" if kind.kind == "i" else "a number"
        return f"cannot parse {field!r} as {what}"
    return f"cannot parse {text!r}"


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
    write_json(path, doc)


def read_tracklets_json(path: str | Path) -> tuple[int, list[Tracklet]]:
    """A sidecar's camera and tracklets. Their boxes and confidences are
    left to check_tracklet_boxes, which `associate` calls after its check
    that no tracklet is in two sidecars.

    The text is parsed with no float hook: _tracklets_from_doc converts
    every number of a valid sidecar, so an overflowing literal is an inf
    there. On any doubt, read_json and _tracklets_by_entry name the fault."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         object_pairs_hook=_unique_keys, parse_constant=_reject_constant)
    except ValueError:
        doc = None
    found = None
    if (type(doc) is dict and doc.keys() == {"camera_id", "tracklets"}
            and type(doc["camera_id"]) is int and type(doc["tracklets"]) is list):
        found = _tracklets_from_doc(doc["camera_id"], doc["tracklets"])
    if found:
        camera_id, (tracklets, values) = doc["camera_id"], found
    else:
        doc = read_json(path)
        camera_id = _field(path, doc, "camera_id", int)
        tracklets = _tracklets_by_entry(path, camera_id, _field(path, doc, "tracklets", list))
        values = np.concatenate(
            [np.empty(0)] + [t.embedding for t in tracklets if t.embedding is not None])
    del doc
    pooled = [t for t in tracklets if t.embedding is not None]
    if pooled:  # geometry.embedding_fault over every value, one value a row
        _check_groups(
            path, [embedding_fault(values[:, None])], [len(t.embedding) for t in pooled],
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


_ENTRY_KEYS = frozenset(
    ("track_id", "frames", "boxes", "confidences", "mean_confidence", "mean_embedding")
)


def _tracklets_from_doc(
    camera_id: int, entries: list
) -> Optional[tuple[list[Tracklet], np.ndarray]]:
    """One camera's tracklet entries checked as columns, with the rules of
    _tracklet_from_doc and a track_id listed once: the tracklets, which
    hold slices of one array per column, and the column of all their
    mean_embedding values. None when an entry breaks a rule, holds a
    non-finite number or a key this does not convert (_ENTRY_KEYS; a
    mean_confidence must be a number), for _tracklets_by_entry to name."""
    if not (_DICT_TYPE.issuperset(map(type, entries))
            and _ENTRY_KEYS.issuperset(set().union(*entries))):
        return None
    try:
        track_ids, frames, boxes, confidences = (
            [e[key] for e in entries] for key in ("track_id", "frames", "boxes", "confidences")
        )
    except KeyError:
        return None
    mean_confidences = [e.get("mean_confidence", 0.0) for e in entries]
    pooled = [e.get("mean_embedding") for e in entries]
    embeddings = [p for p in pooled if p is not None]
    if not (_INT_TYPE.issuperset(map(type, track_ids)) and len(set(track_ids)) == len(entries)
            and _NUMBER_TYPES.issuperset(map(type, mean_confidences))
            and _LIST_TYPE.issuperset(map(type, itertools.chain(
                frames, boxes, confidences, embeddings)))):
        return None
    lengths = list(map(len, frames))
    rows = list(itertools.chain.from_iterable(boxes))
    if not (0 not in lengths and lengths == list(map(len, boxes)) == list(map(len, confidences))
            and 0 not in map(len, embeddings)
            and _LIST_TYPE.issuperset(map(type, rows)) and {4}.issuperset(map(len, rows))):
        return None
    frame_values = list(itertools.chain.from_iterable(frames))
    columns = [list(itertools.chain.from_iterable(v)) for v in (rows, confidences, embeddings)]
    if not (_INT_TYPE.issuperset(map(type, frame_values))
            and _NUMBER_TYPES.issuperset(map(type, itertools.chain(*columns)))):
        return None
    try:
        frame = np.array(frame_values, dtype=np.int64)
        floats = [np.array(v, dtype=np.float64) for v in (*columns, mean_confidences)]
    except OverflowError:  # an integer literal beyond the int64 or float range
        return None
    del frame_values, rows, columns  # the flat lists, before the tracklets are built
    box, confidence, embedding, _ = floats
    ends = list(itertools.accumulate(lengths))
    steps = frame[1:] <= frame[:-1]
    steps[np.array(ends[:-1], dtype=np.intp) - 1] = False  # from one tracklet to the next
    if steps.any() or not all(np.isfinite(v).all() for v in floats):
        return None
    box = box.reshape(-1, 4)
    tracklets = []
    start = used = 0
    for track_id, end, p in zip(track_ids, ends, pooled):
        if p is not None:
            p, used = embedding[used:used + len(p)], used + len(p)
        tracklets.append(Tracklet(
            camera_id=camera_id, track_id=track_id, frames=frame[start:end],
            boxes=box[start:end], confidences=confidence[start:end], embedding=p,
        ))
        start = end
    return tracklets, embedding


def _tracklets_by_entry(path: str | Path, camera_id: int, entries: list) -> list[Tracklet]:
    """One camera's tracklet entries read one at a time; the first bad
    entry, in entry order, is named; a track_id may appear once."""
    tracklets = [_tracklet_from_doc(path, camera_id, entry) for entry in entries]
    seen: set[int] = set()
    for t in tracklets:
        if t.track_id in seen:
            raise FormatError(f"{path}: camera {camera_id}: track {t.track_id} is listed twice")
        seen.add(t.track_id)
    return tracklets


def _tracklet_from_doc(path: str | Path, camera_id: int, entry) -> Tracklet:
    """One tracklet entry of a sidecar or results file, whose first fault
    is named (_tracklets_from_doc checks valid entries faster).

    track_id and frames are JSON integers, at least one frame, strictly
    increasing; boxes (4 numbers each) and confidences come one per frame. A
    sidecar's mean_embedding is null or a non-empty list of numbers;
    mean_confidence is derived, so it is not read.
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
    for f in frames:
        _typed(f"{where}: frame", f, int)
    boxes = np.array([_numbers(where, "box", row, 4) for row in boxes])
    confidences = _numbers(where, "confidences", confidences, len(confidences))
    pooled = entry.get("mean_embedding")
    embedding = None if pooled is None else np.array(_numbers(where, "mean_embedding", pooled))
    try:
        frames = np.array(frames, dtype=np.int64)
    except OverflowError:
        f = next(f for f in frames if not _INT64_MIN <= f <= _INT64_MAX)
        raise FormatError(f"{where}: frame {f} is outside the 64-bit integer range") from None
    steps = np.flatnonzero(frames[1:] <= frames[:-1])
    if steps.size:
        i = steps[0]
        raise FormatError(
            f"{where}: frames must be strictly increasing, got {frames[i + 1]} after {frames[i]}"
        )
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
    """truth.json of a GroundTruth, embeddings None written as null."""
    doc = {
        "identity_count": truth.identity_count,
        "embeddings": None if truth.embeddings is None
        else np.asarray(truth.embeddings, dtype=np.float64),
        "cameras": {
            str(cam): {
                str(f): [
                    [identity, float(b.x), float(b.y), float(b.w), float(b.h)]
                    for identity, b in entries
                ]
                for f, entries in frames.items()
            }
            for cam, frames in truth.cameras.items()
        },
    }
    write_json(path, doc)


def read_truth_json(path: str | Path) -> GroundTruth:
    """The GroundTruth that write_truth_json wrote. Camera and frame keys
    are decimal integer strings; identities are JSON integers; embeddings
    may be absent or null, or else are identity_count rows of one width >= 1."""
    doc = read_json(path)
    identity_count = _field(path, doc, "identity_count", int)
    if identity_count < 0:
        raise FormatError(f"{path}: identity_count must be >= 0, got {identity_count}")
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
        if not rows or len(rows) != identity_count:
            raise FormatError(
                f"{path}: embeddings must be null or identity_count rows of one width >= 1, "
                f"got {len(rows)} rows for identity_count {identity_count}"
            )
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
    return GroundTruth(identity_count=identity_count, embeddings=embeddings, cameras=cameras)


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


def count_report_doc(per_set_predicted: Sequence[int], per_set_truth: Sequence[int],
                     counts: ConfusionCounts) -> dict:
    """The eval report: each camera set's predicted and true counts, their
    L2 count error, and the identity-level confusion counts with accuracy,
    recall and F1 (None where undefined). Its floats are unrounded: the
    writer rounds them."""
    return {
        "per_set_predicted": [int(v) for v in per_set_predicted],
        "per_set_truth": [int(v) for v in per_set_truth],
        "l2_error": l2_count_error(per_set_predicted, per_set_truth),
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "accuracy": counts.accuracy,
        "recall": counts.recall,
        "f1": counts.f1,
    }


def write_results_json(path: str | Path, doc: dict) -> None:
    if doc["unique_count"] != len(doc["clusters"]):
        raise ValueError("unique_count must equal the number of clusters listed")
    write_json(path, doc)


@dataclass(eq=False)
class ResultsFile:
    camera_tracklets: dict[int, list[Tracklet]]
    clusters: list[Cluster]
    unique_count: int
    method_counts: Optional[dict[str, int]]


def read_results_json(path: str | Path) -> ResultsFile:
    """Ids are JSON integers; a camera_id, and a track_id within a camera,
    may appear once; each cluster member is a listed tracklet in one cluster.
    method_counts is null or absent, or maps method names to integers >= 0;
    count_report is null or absent; timing is an object whose
    frames_processed and cameras are integers >= 0. Keys the reader does not
    know are accepted."""
    doc = read_json(path)
    camera_tracklets: dict[int, list[Tracklet]] = {}
    for cam_doc in _field(path, doc, "cameras", list):
        cam = _field(f"{path}: a cameras entry", cam_doc, "camera_id", int)
        if cam in camera_tracklets:
            raise FormatError(f"{path}: camera {cam} is listed twice")
        entries = _field(f"{path}: camera {cam}", cam_doc, "tracklets", list)
        found = _tracklets_from_doc(cam, entries)
        camera_tracklets[cam] = found[0] if found else _tracklets_by_entry(path, cam, entries)
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
    method_counts = doc.get("method_counts")
    if method_counts is not None:
        if type(method_counts) is not dict:
            raise FormatError(
                f"{path}: method_counts must be null or an object, got {_show(method_counts)}")
        for method, count in method_counts.items():
            if method not in METHODS:
                raise FormatError(f"{path}: method_counts: {_show(method)} is not a method")
            if _typed(f"{path}: method_counts: {method}", count, int) < 0:
                raise FormatError(f"{path}: method_counts: {method} must be >= 0, got {count}")
    if doc.get("count_report") is not None:
        raise FormatError(f"{path}: count_report must be null, got {_show(doc['count_report'])}")
    timing = _field(path, doc, "timing", dict)
    for key in ("frames_processed", "cameras"):
        if _field(f"{path}: timing", timing, key, int) < 0:
            raise FormatError(f"{path}: timing: {key} must be >= 0, got {timing[key]}")
    check_tracklet_boxes(path, [t for tls in camera_tracklets.values() for t in tls])
    return ResultsFile(
        camera_tracklets=camera_tracklets,
        clusters=clusters,
        unique_count=unique_count,
        method_counts=method_counts,
    )


# ----------------------------------------------------------------------
# Writing files. Every writer hands its text to the open file in parts, and
# the file's own buffer bounds what a write holds: a CSV writer formats a
# block of rows at a time, and the JSON encoder an array's rows a block at a
# time.

_BLOCK_VALUES = 1 << 12  # numbers formatted at a time


def _write_rows(
    path: str | Path, header: str, columns: Sequence[np.ndarray], line: Callable[..., str]
) -> None:
    """A CSV file: the header line, then line(*values) for each row of the
    row-aligned columns, given the row's values as Python objects. Rows are
    converted and formatted about _BLOCK_VALUES numbers at a time."""
    n = len(columns[0]) if columns else 0
    step = max(1, _BLOCK_VALUES * n // max(sum(c.size for c in columns), 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, step):
            fh.write("".join(map(line, *(c[start:start + step].tolist() for c in columns))))


def write_json(path: str | Path, doc: dict) -> None:
    """A JSON file holding json_text(doc) and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _encode(doc, "\n", fh.write)
        fh.write("\n")


def json_text(doc) -> str:
    """doc as JSON with 2-space indentation and sorted keys, each float, also
    a float array element, at 9 significant digits.

    The text equals json.dumps(doc, indent=2, sort_keys=True) for the same
    document with every numpy array as nested lists and every float v
    replaced by round9(v). Object keys are strings; values are dicts, lists,
    tuples, numpy arrays, str, int, float, bool or None.
    """
    parts: list[str] = []
    _encode(doc, "\n", parts.append)
    return "".join(parts)


def _encode(value, newline: str, write: Callable[[str], object]) -> None:
    """Hand value's JSON text to `write` in parts; `newline` is a line break
    plus the indentation of the line value starts on."""
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        for i, key in enumerate(sorted(value)):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(("," if i else "{") + inner + _string_text(key) + ": ")
            _encode(value[key], inner, write)
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        for i, item in enumerate(value):
            write(("," if i else "[") + inner)
            _encode(item, inner, write)
        write(newline + "]")
    elif isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.dtype.kind in "fiu":
        _encode_array(value, newline, write)
    elif isinstance(value, np.ndarray):
        _encode(value.tolist(), newline, write)
    else:
        write(_scalar_text(value))


def _encode_array(a: np.ndarray, newline: str, write: Callable[[str], object]) -> None:
    """Hand a 1-d or 2-d int or float array to `write` as nested JSON lists,
    a block of about _BLOCK_VALUES numbers at a time."""
    if not len(a):
        write("[]")
        return
    inner = newline + "  "
    step = max(1, _BLOCK_VALUES * len(a) // max(a.size, 1))
    for start in range(0, len(a), step):
        write(("," if start else "[") + inner + _items_text(a[start:start + step], inner))
    write(newline + "]")


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
_LIST_TYPE = frozenset((list,))
_DICT_TYPE = frozenset((dict,))
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
