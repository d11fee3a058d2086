"""The benchmark's own tests: a tiny run of every workload, and pass-through
tracing. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--tiny"])
    out = capsys.readouterr().out
    line = last_json_line(out)
    assert code == 0
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in run.load_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    if run.WORKLOADS[name].get("parallel_runs"):
        assert "parallel_wall_s" in out  # a --parallel run matched the sequential bytes


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_writes_identical_results(name, tmp_path):
    w = run.Workload(name, seed=5, tmp=tmp_path, tiny=True)
    w.setup()
    args = w.command()
    ok, _, _, plain = w.timed_run(run.mcmot(*args))
    spans_file = tmp_path / "spans.json"
    traced_argv = [sys.executable, str(run.HERE / "spans.py"), str(spans_file), "t1", "--", *args]
    traced_ok, _, _, traced = w.timed_run(traced_argv)
    assert ok and traced_ok and plain is not None
    assert traced == plain

    doc = json.loads(spans_file.read_text(encoding="utf-8"))
    metrics = spans.layer_metrics(doc["spans"], doc["patched"])
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert all(span[4] == "t1" for span in doc["spans"])


def test_trace_mode_reports_every_per_layer_metric(capsys):
    code = run.main(["--workload", "crowd_study1", "--seed", "4", "--seconds", "1",
                     "--trace", "1", "--tiny"])
    line = last_json_line(capsys.readouterr().out)
    assert code == 0 and line["correct"] is True
    declared = {m["name"]: m["unit"] for m in run.load_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_removed_function_makes_its_metrics_absent():
    spans_list = [
        ["cli.main", 0.0, 1.0, -1, "r", None],
        ["formats.read_detections", 0.1, 0.3, 0, "r", {"rows": 5, "bytes": 1000}],
    ]
    patched = ["formats.read_detections", "geometry.nms"]
    m = spans.layer_metrics(spans_list, patched)
    assert m["formats.read_detections_s"] == pytest.approx(0.2)
    assert m["geometry.nms_s"] == 0.0  # wrapped but not called
    assert "kalman.predict_batch_s" not in m  # not wrapped: absent
    assert m["cli.self_s"] + m["formats.self_s"] == pytest.approx(1.0)


def test_install_skips_missing_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(spans, "TARGETS", [("mcmot.geometry", "no_such_function", None),
                                           ("mcmot.no_such_module", "f", None)])
    assert spans.install(spans.Tracer("r")) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd_study1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
