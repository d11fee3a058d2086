"""The benchmark's outside-in trace still sees the tracker.

`perfbench/spans.py` wraps the functions its TARGETS list names and takes
counts from their arguments and results; a function renamed away, or a
changed signature, silently drops metrics. This test traces one `count` run
on the golden scenario and checks that every target was patched and that
the tracker and cascade spans carry their counts.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcmot

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
GOLDEN = ROOT / "tests" / "data" / "golden"


def load_spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    out = tmp / "spans.json"
    src = str(Path(mcmot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(SPANS), str(out), "r", "--",
         "count", "--scenario", str(GOLDEN / "scenario"), "--config", str(GOLDEN / "config.json"),
         "--method", "both", "--output", str(tmp / "results.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def spans_named(trace, name):
    return [span for span in trace["spans"] if span[0] == name]


def test_every_target_is_patched(trace):
    spans = load_spans_module()
    names = {f"{spans.LAYER_OF_MODULE[module]}.{path.rpartition('.')[2].lstrip('_')}"
             for module, path, _ in spans.TARGETS}
    assert names - set(trace["patched"]) == set()


@pytest.mark.parametrize("name, keys", [
    ("tracker.step", {"dets", "live"}),
    ("tracker.export_tracklets", {"tracklets"}),
    ("assignment.matching_cascade", {"matches"}),
])
def test_spans_carry_counts(trace, name, keys):
    found = spans_named(trace, name)
    assert found, f"no {name} span"
    assert all(span[5] is not None and keys <= span[5].keys() for span in found)
