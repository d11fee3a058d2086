#!/usr/bin/env python3
"""Build every output of one scenario and record its SHA-256 sums, or compare
two such manifests: the byte contract as one command.

`build` runs the `mcmot` that PYTHONPATH selects, one CLI process per step,
for each seed:
    simulate                              -> seed<N>/scenario/
    track, every camera                   -> seed<N>/tracks/cam<c>.csv and its sidecar
    associate euclidean, voting and both  -> seed<N>/associate_<method>.json
    count --method both                   -> seed<N>/count_both.json
    count --method both --parallel        -> seed<N>/count_both_parallel.json
    eval of each results file             -> seed<N>/eval_<results>.json and .stdout
and writes a manifest of every file's sum. A `--parallel` count whose bytes
differ from the sequential one fails the build. `compare` names each file
whose sum differs between two manifests, or that only one of them holds, and
exits 1 if there is any.

Parent against change, from a `git archive` copy of the parent in PARENT:
    PYTHONPATH=PARENT/src python scripts/byte_manifest.py build \\
        --scenario-config scene.json --config study1 --seeds 3101 3102 \\
        --work parent_out --manifest parent.json
    PYTHONPATH=src python scripts/byte_manifest.py build \\
        --scenario-config scene.json --config study1 --seeds 3101 3102 \\
        --work change_out --manifest change.json
    python scripts/byte_manifest.py compare parent.json change.json

No sum is meant to be committed: float bits may differ across numpy versions.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

METHODS = ("euclidean", "voting", "both")


def mcmot(*args: str) -> bytes:
    """Run one `mcmot` command; return its stdout, or exit with its stderr."""
    proc = subprocess.run([sys.executable, "-m", "mcmot.cli", *args], capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"mcmot {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def build_seed(out: Path, seed: int, scenario_config: list[str], config: str) -> None:
    scn, tracks = out / "scenario", out / "tracks"
    mcmot("simulate", *scenario_config, "--seed", str(seed), "--out", str(scn))
    tracks.mkdir()
    for cam in range(json.loads((scn / "scenario.json").read_text(encoding="utf-8"))["cameras"]):
        mcmot("track", "--detections", str(scn / f"detections_cam{cam}.csv"),
              "--embeddings", str(scn / f"embeddings_cam{cam}.csv"), "--config", config,
              "--camera-id", str(cam), "--output", str(tracks / f"cam{cam}.csv"))
    results = []
    for method in METHODS:
        results.append(out / f"associate_{method}.json")
        mcmot("associate", "--tracks", str(tracks), "--method", method, "--config", config,
              "--output", str(results[-1]))
    for parallel in ([], ["--parallel"]):
        results.append(out / f"count_both{'_parallel' if parallel else ''}.json")
        mcmot("count", "--scenario", str(scn), "--config", config, "--method", "both",
              *parallel, "--output", str(results[-1]))
    if results[-1].read_bytes() != results[-2].read_bytes():
        sys.exit(f"{results[-1]} differs from {results[-2]}: --parallel must equal the sequential run")
    for path in results:
        stdout = mcmot("eval", "--results", str(path), "--truth", str(scn / "truth.json"),
                       "--output", str(out / f"eval_{path.stem}.json"))
        (out / f"eval_{path.stem}.stdout").write_bytes(stdout)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(args: argparse.Namespace) -> int:
    work = Path(args.work)
    if work.exists() and any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    scenario_config = ["--config", args.scenario_config] if args.scenario_config else []
    for seed in args.seeds:
        out = work / f"seed{seed}"
        out.mkdir(parents=True)
        build_seed(out, seed, scenario_config, args.config)
    files = sorted(p for p in work.rglob("*") if p.is_file())
    manifest = {
        "inputs": {
            "scenario_config": (json.loads(Path(args.scenario_config).read_text(encoding="utf-8"))
                                if args.scenario_config else None),
            "config": args.config,
            "seeds": args.seeds,
        },
        "mcmot": mcmot_location(),
        "files": {p.relative_to(work).as_posix(): sha256(p) for p in files},
    }
    Path(args.manifest).write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{len(files)} files from {manifest['mcmot']} -> {args.manifest}")
    return 0


def mcmot_location() -> str:
    proc = subprocess.run([sys.executable, "-c", "import mcmot; print(mcmot.__file__)"],
                          capture_output=True, text=True, check=True)
    return str(Path(proc.stdout.strip()).parent)


def compare(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.a, args.b))
    if a["inputs"] != b["inputs"]:
        print(f"inputs differ: {a['inputs']} against {b['inputs']}")
    lines = []
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if name not in b["files"]:
            lines.append(f"only in {args.a}: {name}")
        elif name not in a["files"]:
            lines.append(f"only in {args.b}: {name}")
        elif a["files"][name] != b["files"][name]:
            lines.append(f"differs: {name}")
    print("\n".join(lines) if lines else f"all {len(a['files'])} files identical")
    return 1 if lines or a["inputs"] != b["inputs"] else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="build every output and write its manifest")
    b.add_argument("--scenario-config", help="scenario config JSON for simulate (defaults if omitted)")
    b.add_argument("--config", default="default",
                   help="pipeline preset or config JSON path for track, associate and count")
    b.add_argument("--seeds", type=int, nargs="+", required=True)
    b.add_argument("--work", required=True, help="new or empty directory for the outputs")
    b.add_argument("--manifest", required=True, help="manifest JSON to write")
    c = sub.add_parser("compare", help="name every file whose sum differs")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    return build(args) if args.command == "build" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
