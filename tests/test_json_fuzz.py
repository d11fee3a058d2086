"""Fuzz the JSON input boundary through the CLI.

Valid tracklet sidecars, results files, config files and truth files are
mutated (type swaps, dropped keys and elements, ragged lists, duplicated
entries, wrong nesting) and fed to `mcmot associate`, `mcmot eval` and
`mcmot count --config`. Every run must exit 0, or exit 1 with exactly one
`error[<category>]: ...` line on stderr; an exception escaping `main` fails
the test.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot.association import METHODS
from mcmot.cli import main
from mcmot.config import config_to_dict, study1_preset

# Values a node may be swapped for: wrong JSON types, bools posing as
# integers, an integer beyond the float range, and containers.
REPLACEMENTS = [1.5, -1, 0, 10**400, "abc", "1", True, False, None, [], {}, [1, 2], {"a": 1}]
KINDS = ["swap", "drop", "ragged", "duplicate", "nest"]


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_outcome(code: int, err: str) -> None:
    assert code in (0, 1), code
    if code == 1:
        assert err.startswith("error[") and err.count("\n") == 1, err
        assert "Traceback" not in err


def nodes(doc, path=()):
    """(path, value) of every node of a JSON tree, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


def replace_at(doc, path, value):
    """doc with the node at path replaced by value (doc itself is changed)."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def drop_at(doc, path):
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return doc


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(nodes(doc))))
        kind = draw(st.sampled_from(KINDS))
        if kind == "drop" and path:
            doc = drop_at(doc, path)
        elif kind == "ragged" and isinstance(value, list) and value:
            if draw(st.booleans()):
                value.pop()
            else:
                value.append(copy.deepcopy(value[-1]))
        elif kind == "duplicate" and isinstance(value, list) and value:
            value.append(copy.deepcopy(draw(st.sampled_from(value))))
        elif kind == "nest":
            unwrap = isinstance(value, list) and value and draw(st.booleans())
            doc = replace_at(doc, path, value[0] if unwrap else [value])
        else:
            doc = replace_at(doc, path, copy.deepcopy(draw(st.sampled_from(REPLACEMENTS))))
    return doc


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Two cameras' scenario, sidecars, their results file and the truth file."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "scenario.json"
    cfg.write_text(json.dumps({"cameras": 2, "identities": 2, "frames": 12, "embedding_dim": 4}))
    scn, tracks = root / "scn", root / "tracks"
    tracks.mkdir()
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(scn)])[0] == 0
    for cam in range(2):
        argv = ["track", "--detections", str(scn / f"detections_cam{cam}.csv"),
                "--embeddings", str(scn / f"embeddings_cam{cam}.csv"),
                "--camera-id", str(cam), "--output", str(tracks / f"cam{cam}.csv")]
        assert run_cli(argv)[0] == 0
    results = root / "results.json"
    assert run_cli(["associate", "--tracks", str(tracks), "--output", str(results)]) == (0, "")
    truth = scn / "truth.json"
    assert run_cli(["eval", "--results", str(results), "--truth", str(truth)]) == (0, "")
    sidecars = {p.name: json.loads(p.read_text()) for p in sorted(tracks.glob("*.tracklets.json"))}
    assert all(doc["tracklets"] for doc in sidecars.values())
    return {
        "root": root,
        "scenario": scn,
        "sidecars": sidecars,
        "results": json.loads(results.read_text()),
        "truth": truth,
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_sidecars(valid, data):
    name = data.draw(st.sampled_from(sorted(valid["sidecars"])))
    docs = dict(valid["sidecars"], **{name: data.draw(mutated(valid["sidecars"][name]))})
    tracks = valid["root"] / "fuzz_tracks"
    tracks.mkdir(exist_ok=True)
    for file_name, doc in docs.items():
        (tracks / file_name).write_text(json.dumps(doc))
    argv = ["associate", "--tracks", str(tracks), "--method", "both",
            "--output", str(valid["root"] / "fuzz_results.json")]
    assert_clean_outcome(*run_cli(argv))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_results(valid, data):
    results = valid["root"] / "fuzz_eval.json"
    doc = data.draw(mutated(valid["results"]))
    results.write_text(json.dumps(doc))
    argv = ["eval", "--results", str(results), "--truth", str(valid["truth"])]
    code, err = run_cli(argv)
    assert_clean_outcome(code, err)
    if code == 0:
        # A file eval reads holds what its typed keys say, also the keys
        # eval itself does not use.
        counts = doc.get("method_counts")
        assert counts is None or type(counts) is dict and all(
            method in METHODS and type(n) is int and n >= 0 for method, n in counts.items())
        assert doc.get("count_report") is None
        timing = doc["timing"]
        assert type(timing) is dict
        assert all(type(timing[k]) is int and timing[k] >= 0
                   for k in ("frames_processed", "cameras"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_truth(valid, data):
    truth = valid["root"] / "fuzz_truth.json"
    truth.write_text(json.dumps(data.draw(mutated(json.loads(valid["truth"].read_text())))))
    argv = ["eval", "--results", str(valid["root"] / "results.json"), "--truth", str(truth)]
    assert_clean_outcome(*run_cli(argv))


def to_json(node, repeat=None, path=()):
    """JSON text of node; repeat=(path, key, value) makes the object at path
    end with a second `key` entry holding value."""
    if isinstance(node, dict):
        items = [f"{json.dumps(k)}: {to_json(v, repeat, path + (k,))}" for k, v in node.items()]
        if repeat is not None and repeat[0] == path:
            items.append(f"{json.dumps(repeat[1])}: {json.dumps(repeat[2])}")
        return "{" + ", ".join(items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(to_json(v, repeat, path + (i,)) for i, v in enumerate(node)) + "]"
    return json.dumps(node)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_config(valid, data):
    doc = data.draw(mutated(dict(config_to_dict(study1_preset()), preset="study1")))
    objects = [(path, node) for path, node in nodes(doc) if isinstance(node, dict) and node]
    repeat = None
    if objects and data.draw(st.booleans()):
        path, node = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(node)))
        repeat = (path, key, copy.deepcopy(data.draw(st.sampled_from([node[key]] + REPLACEMENTS))))
    config = valid["root"] / "fuzz_config.json"
    config.write_text(to_json(doc, repeat))
    argv = ["count", "--scenario", str(valid["scenario"]), "--config", str(config),
            "--method", "both", "--output", str(valid["root"] / "fuzz_count.json")]
    code, err = run_cli(argv)
    assert_clean_outcome(code, err)
    if repeat is not None:
        # A repeated key is rejected whatever else the file holds.
        assert code == 1 and err.startswith(f"error[format]: {config}: duplicate key "), err
