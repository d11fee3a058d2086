"""Outside-in span tracing of one mcmot CLI run, and the per-layer metrics
computed from the spans.

Run as a script, it executes ``mcmot.cli.main`` in-process with pass-through
wrappers patched onto the module and class attributes listed in TARGETS,
keeps every span (name, start, end, parent, run id, counts) in memory and
writes them as JSON when the run ends:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json RUN_ID -- count --scenario ...

Nothing under src/ is edited: a refactor that removes a wrapped function
only makes that function's metrics absent. Forked workers' spans would be
lost, so traced runs are sequential (no --parallel).

Imported as a module (by run.py), it only aggregates span files; it does not
import mcmot.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# Layer of each traced module; `config` belongs to the cli layer.
LAYER_OF_MODULE = {
    "mcmot.cli": "cli",
    "mcmot.config": "cli",
    "mcmot.formats": "formats",
    "mcmot.pipeline": "pipeline",
    "mcmot.geometry": "geometry",
    "mcmot.kalman": "kalman",
    "mcmot.assignment": "assignment",
    "mcmot.tracker": "tracker",
    "mcmot.association": "association",
    "mcmot.refine": "refine",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
ROOT = "cli.main"


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _gallery_bytes(args) -> int:
    tracks, dets = args[0], args[1]
    if not tracks or not dets:
        return 0
    dim = len(dets[0].embedding)
    return sum(len(t.gallery) for t in tracks) * dim * 8


def _solve_counts(args, result):
    rows, cols = args[0].shape if getattr(args[0], "ndim", 0) == 2 else (0, 0)
    return {"cells": rows * cols, "capacity": min(rows, cols), "matched": len(result.pairs)}


# (module, attribute path, counts(args, result) -> dict or None). Counts are
# taken at the same boundary as the span; for methods args[0] is self.
TARGETS = [
    ("mcmot.config", "load_config", None),
    ("mcmot.formats", "read_detections",
     lambda a, r: {"rows": len(r), "bytes": _size(a[0])}),
    ("mcmot.formats", "read_embeddings",
     lambda a, r: {"rows": len(r), "bytes": _size(a[0])}),
    ("mcmot.formats", "merge_embeddings", None),
    ("mcmot.formats", "read_tracklets_json",
     lambda a, r: {"rows": len(r[1]), "bytes": _size(a[0])}),
    ("mcmot.formats", "results_doc", None),
    ("mcmot.formats", "write_results_json", lambda a, r: {"bytes": _size(a[0])}),
    ("mcmot.pipeline", "run_pipeline", None),
    ("mcmot.pipeline", "process_camera", lambda a, r: {"frames": r.frames_processed}),
    ("mcmot.pipeline", "associate_and_refine", None),
    ("mcmot.geometry", "nms", lambda a, r: {"in": len(a[0]), "out": len(r)}),
    ("mcmot.geometry", "iou_matrix", None),
    ("mcmot.kalman", "KalmanFilter.initiate", None),
    ("mcmot.kalman", "KalmanFilter.predict_batch", lambda a, r: {"rows": len(a[1])}),
    ("mcmot.kalman", "KalmanFilter.update_batch", lambda a, r: {"rows": len(a[1])}),
    ("mcmot.kalman", "KalmanFilter.gating_matrix", lambda a, r: {"cells": int(r.size)}),
    ("mcmot.assignment", "matching_cascade", lambda a, r: {"matches": len(r.pairs)}),
    ("mcmot.assignment", "iou_matching", lambda a, r: {"matches": len(r.pairs)}),
    ("mcmot.assignment", "solve_assignment", _solve_counts),
    ("mcmot.assignment", "gate",
     lambda a, r: {"cells": int(r.size), "rejected": int(r.size - a[1].sum())}),
    ("mcmot.tracker", "Tracker.step",
     lambda a, r: {"dets": len(a[2]), "live": len(a[0].tracks)}),
    ("mcmot.tracker", "Tracker._gated_cost", None),
    ("mcmot.tracker", "Tracker.export_tracklets", lambda a, r: {"tracklets": len(r)}),
    ("mcmot.tracker", "appearance_cost",
     lambda a, r: {"cells": int(r.size), "bytes": _gallery_bytes(a)}),
    ("mcmot.association", "associate_multicamera",
     lambda a, r: {"in": sum(len(v) for v in a[0].values()), "out": len(r)}),
    ("mcmot.association", "_greedy_pass", None),
    ("mcmot.association", "voting_merge", lambda a, r: {"in": len(a[0]), "out": len(r)}),
    ("mcmot.refine", "refine", lambda a, r: {"in": len(a[0]), "out": len(r)}),
]


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, run_id,
    counts]; parent is the index of the enclosing span or -1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.run_id, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                try:
                    span[5] = counts(args, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # a changed signature loses the counts, not the run
            return result

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Patch every target that exists; return the names that were patched.

    A function is replaced wherever an mcmot module binds it (its defining
    module and every `from .x import f` copy), so calls through either name
    are traced.
    """
    import importlib

    patched = []
    for module_name, path, counts in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            continue
        name = f"{LAYER_OF_MODULE[module_name]}.{attr.lstrip('_')}"
        wrapper = tracer.wrap(name, original, counts)
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mcmot" or mod_name.startswith("mcmot."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        patched.append(name)
    return patched


def run_traced(out_path: str, run_id: str, argv: list[str]) -> int:
    import mcmot.cli

    tracer = Tracer(run_id)
    patched = install(tracer)
    main = tracer.wrap(ROOT, mcmot.cli.main)
    try:
        return main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "patched": patched, "spans": tracer.spans}, fh)


# ----------------------------------------------------------------------
# Aggregation (no mcmot import).


def layer_metrics(spans: list[list], patched: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json.

    A function that was wrapped but never called contributes zero; a metric
    whose function no longer exists (so was not patched) is left out.
    """
    patched_set = set(patched) | {ROOT}
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, *_) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += end - start
    self_time = [(sp[2] - sp[1]) - child_time[i] for i, sp in enumerate(spans)]
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for sp, t in zip(spans, self_time):
        self_by_layer[sp[0].split(".", 1)[0]] += t

    def total(name):
        if name not in patched_set:
            return None
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, []))

    def count(name, key):
        if name not in patched_set:
            return None
        return sum((spans[i][5] or {}).get(key, 0) for i in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, [])) if name in patched_set else None

    def diff(a, b):
        return None if a is None or b is None else a - b

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    m: dict[str, float | None] = {f"{layer}.self_s": t for layer, t in self_by_layer.items()}
    m["trace.wall_s"] = total(ROOT)

    reads = [n for n in ("formats.read_detections", "formats.read_embeddings",
                         "formats.read_tracklets_json") if n in patched_set]
    read_s = sum(total(n) for n in reads)
    input_mb = sum(count(n, "bytes") for n in reads) / 1e6
    m.update({
        "formats.read_detections_s": total("formats.read_detections"),
        "formats.read_embeddings_s": total("formats.read_embeddings"),
        "formats.merge_embeddings_s": total("formats.merge_embeddings"),
        "formats.read_tracklets_json_s": total("formats.read_tracklets_json"),
        "formats.rows_read": sum(count(n, "rows") for n in reads),
        "formats.input_MB": input_mb,
        "formats.parse_MB_per_s": input_mb / read_s if read_s > 0 else 0.0,
        "formats.results_doc_s": total("formats.results_doc"),
        "formats.write_results_json_s": total("formats.write_results_json"),
        "formats.results_bytes": count("formats.write_results_json", "bytes"),
        "pipeline.run_pipeline_s": total("pipeline.run_pipeline"),
        "pipeline.process_camera_s": total("pipeline.process_camera"),
        "pipeline.associate_and_refine_s": total("pipeline.associate_and_refine"),
        "pipeline.frames_processed": count("pipeline.process_camera", "frames"),
        "geometry.nms_s": total("geometry.nms"),
        "geometry.nms_in": count("geometry.nms", "in"),
        "geometry.nms_suppressed": diff(count("geometry.nms", "in"), count("geometry.nms", "out")),
        "kalman.predict_batch_s": total("kalman.predict_batch"),
        "kalman.predict_rows": count("kalman.predict_batch", "rows"),
        "kalman.update_batch_s": total("kalman.update_batch"),
        "kalman.update_rows": count("kalman.update_batch", "rows"),
        "kalman.gating_matrix_s": total("kalman.gating_matrix"),
        "kalman.gating_cells": count("kalman.gating_matrix", "cells"),
        "kalman.initiate_calls": calls("kalman.initiate"),
        "assignment.matching_cascade_s": total("assignment.matching_cascade"),
        "assignment.cascade_matches": count("assignment.matching_cascade", "matches"),
        "assignment.iou_matching_s": total("assignment.iou_matching"),
        "assignment.iou_matches": count("assignment.iou_matching", "matches"),
        "assignment.solve_s": total("assignment.solve_assignment"),
        "assignment.solve_calls": calls("assignment.solve_assignment"),
        "assignment.solve_cells": count("assignment.solve_assignment", "cells"),
        "assignment.solve_matched_ratio": ratio(count("assignment.solve_assignment", "matched"),
                                                count("assignment.solve_assignment", "capacity")),
        "assignment.gate_cells": count("assignment.gate", "cells"),
        "assignment.gate_rejected": count("assignment.gate", "rejected"),
        "tracker.step_s": total("tracker.step"),
        "tracker.dets_in": count("tracker.step", "dets"),
        "tracker.appearance_cost_s": total("tracker.appearance_cost"),
        "tracker.appearance_cells": count("tracker.appearance_cost", "cells"),
        "tracker.appearance_MB": ratio(count("tracker.appearance_cost", "bytes"), 1e6),
        "tracker.tracklets_exported": count("tracker.export_tracklets", "tracklets"),
        "association.associate_multicamera_s": total("association.associate_multicamera"),
        "association.voting_merge_s": total("association.voting_merge"),
        "association.voting_calls": calls("association.voting_merge"),
        "association.voting_merges": diff(count("association.voting_merge", "in"),
                                          count("association.voting_merge", "out")),
        "association.units_in": count("association.associate_multicamera", "in"),
        "association.clusters_out": count("association.associate_multicamera", "out"),
        "refine.refine_s": total("refine.refine"),
        "refine.tracklets_in": count("refine.refine", "in"),
        "refine.tracklets_removed": diff(count("refine.refine", "in"),
                                         count("refine.refine", "out")),
    })

    if "assignment.matching_cascade" in patched_set and "assignment.solve_assignment" in patched_set:
        # One assignment solve per cascade level, directly under the cascade.
        cascades = set(by_name.get("assignment.matching_cascade", []))
        m["assignment.cascade_levels"] = sum(
            1 for i in by_name.get("assignment.solve_assignment", []) if spans[i][3] in cascades
        )
    if "association.greedy_pass" in patched_set:
        # Self time: the greedy pass span minus any traced calls beneath it.
        m["association.greedy_s"] = sum(self_time[i] for i in by_name.get("association.greedy_pass", []))
    if "tracker.step" in patched_set:
        steps = by_name.get("tracker.step", [])
        steps_ms = [(spans[i][2] - spans[i][1]) * 1e3 for i in steps]
        q = (statistics.quantiles(steps_ms, n=100, method="inclusive")
             if len(steps_ms) > 1 else [sum(steps_ms)] * 99)
        m["tracker.step_ms.p50"], m["tracker.step_ms.p99"] = q[49], q[98]
        live = [(spans[i][5] or {}).get("live", 0) for i in steps]
        m["tracker.live_tracks_mean"] = statistics.fmean(live) if live else 0.0
    return {k: v for k, v in m.items() if v is not None}


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: spans.py SPANS.json RUN_ID -- <mcmot arguments>")
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[4:]))
