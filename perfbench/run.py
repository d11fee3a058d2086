#!/usr/bin/env python3
"""mcmot benchmark: seeded workloads driven through the public CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crowd_study1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload's inputs are generated from --seed with `mcmot simulate` (and
`mcmot track` for assoc_pooled) into a temporary directory inside the
checkout; that set-up is not timed. The timed part is a closed loop with one
client: one fresh `mcmot` process per run, runs back to back, for --seconds.
On crowd_study1 two --parallel runs follow the timed window; they are timed
apart (parallel_wall_s, printed only). Every run is checked: exit code 0,
results-JSON bytes identical to the first run (so --parallel output is
bit-identical to sequential), and a well-formed results file. Counting
quality comes from one `mcmot eval` against truth.json.

Times are means over a run's samples, scaled to the reference host speed.
On a shared machine the CPU's speed drifts by tens of percent, in phases that
can outlast a whole run, so raw times move from run to run whichever
statistic is taken. A fixed pure-Python reference (reference_s) is timed after
every process of the timed window, and a reported time is
    mean sample * REF_NOMINAL_S / mean reference time,
the time the sample would take on a host that runs the reference in
REF_NOMINAL_S (see README.md). Both means average the host's speed over the
same stretch of time, however short its fast and slow moments are. One
warm-up probe and run precede the timed loop. Raw times, reference times,
medians, quartiles and sample counts are printed in the readable summary
above the last line. Every process runs with one BLAS thread (BLAS_ENV).

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced runs (see spans.py),
alternated with untraced runs of the same command to measure the tracing
overhead. Metric names and units come from BENCHMARK.json. The exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

RUN_TIMEOUT_S = 120
SETUP_PROBES = 3
# What reference_s() takes on a quiet core of the reference host (see README.md).
REF_NOMINAL_S = 0.1

# One BLAS thread per process. The engine's matrices are small (tens of
# tracks, D <= 512), so a second OpenBLAS thread adds no speed, but its
# busy-waiting doubles the CPU a run burns and ties the timing to whatever
# else runs on the second core. --parallel workers get one thread each.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Crowded fixed-camera scene with realistic detector noise: about 30
# identities per frame plus false positives, D=32.
CROWD_SCENE = {
    "cameras": 3, "identities": 30, "frames": 100, "embedding_dim": 32,
    "embedding_noise_sigma": 0.1, "miss_prob": 0.05, "false_positive_rate": 1.0,
    "box_jitter_sigma": 2.0,
}

# Each workload: the scenario handed to `mcmot simulate`, the timed CLI
# command (input and output paths are appended; `associate` reads sidecars
# that set-up writes with `mcmot track` per camera) and, optionally, how many
# --parallel runs follow the timed window. "why" lives in BENCHMARK.json.
WORKLOADS = {
    "crowd_study1": {
        "scenario": CROWD_SCENE,
        "command": ["count", "--config", "study1", "--method", "both"],
        "parallel_runs": 2,
    },
    "drone_d512": {
        # Moving camera, wide embeddings; noise small enough for study2's
        # 0.05 appearance gate.
        "scenario": {
            "cameras": 3, "identities": 10, "frames": 300, "embedding_dim": 512,
            "embedding_noise_sigma": 0.02, "camera_motion_sigma": 2.0, "miss_prob": 0.05,
            "false_positive_rate": 0.2, "box_jitter_sigma": 1.0,
        },
        "command": ["count", "--config", "study2", "--method", "both"],
    },
    "assoc_pooled": {
        # 4 cameras x 150 identities -> 600 tracklets in sidecar files.
        "scenario": {
            "cameras": 4, "identities": 150, "frames": 12, "embedding_dim": 32,
            "embedding_noise_sigma": 0.1,
        },
        "command": ["associate", "--method", "both"],
    },
}

# Small inputs for the benchmark's own smoke tests.
TINY_SCENARIO = {
    "crowd_study1": {"identities": 6, "frames": 40},
    "drone_d512": {"identities": 3, "frames": 40, "embedding_dim": 64},
    "assoc_pooled": {"identities": 12, "frames": 8},
}


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_process(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall s, peak RSS MB).

    Wall time runs from just before the fork to the reap; peak RSS is the
    kernel's maxrss for the process and its waited-for children (wait4).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def mcmot(*args: str) -> list[str]:
    return [sys.executable, "-m", "mcmot.cli", *args]


class Workload:
    """One workload's generated inputs and its timed command."""

    def __init__(self, name: str, seed: int, tmp: Path, tiny: bool):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.scenario = dict(self.spec["scenario"])
        if tiny:
            self.scenario.update(TINY_SCENARIO[name])
        self.probes = 2 if tiny else SETUP_PROBES
        self.scn = tmp / "scenario"
        self.results = tmp / "results.json"
        self.log = tmp / "run.log"

    def setup(self) -> None:
        """Generate the inputs (untimed)."""
        cfg = self.tmp / "scenario_config.json"
        cfg.write_text(json.dumps(self.scenario), encoding="utf-8")
        self._check_run(mcmot("simulate", "--config", str(cfg), "--seed", str(self.seed),
                              "--out", str(self.scn)), "simulate")
        if self.spec["command"][0] == "associate":
            tracks = self.tmp / "tracks"
            tracks.mkdir()  # `mcmot track` does not create the output directory
            for cam in range(self.scenario["cameras"]):
                self._check_run(mcmot(
                    "track", "--detections", str(self.scn / f"detections_cam{cam}.csv"),
                    "--embeddings", str(self.scn / f"embeddings_cam{cam}.csv"),
                    "--camera-id", str(cam), "--output", str(tracks / f"cam{cam}.csv")),
                    f"track camera {cam}")

    def command(self, parallel: bool = False) -> list[str]:
        args = list(self.spec["command"]) + (["--parallel"] if parallel else [])
        if args[0] == "associate":
            args += ["--tracks", str(self.tmp / "tracks")]
        else:
            args += ["--scenario", str(self.scn)]
        return args + ["--output", str(self.results)]

    def _check_run(self, argv: list[str], what: str) -> None:
        rc, _, _ = run_process(argv, self.log)
        if rc != 0:
            raise CheckFailed(f"{what} exited {rc}: {self.log.read_text(errors='replace')[-2000:]}")

    def timed_run(self, argv: list[str]) -> tuple[bool, float, float, bytes | None]:
        """One closed-loop run: (ok, wall s, peak RSS MB, results bytes or None
        when the run failed)."""
        self.results.unlink(missing_ok=True)
        rc, wall, rss = run_process(argv, self.log)
        if rc != 0 or not self.results.exists():
            sys.stderr.write(f"{self.name}: run exited {rc} with"
                             f"{'' if self.results.exists() else ' no'} results file: "
                             f"{self.log.read_text(errors='replace')[-2000:]}\n")
            return False, wall, rss, None
        return True, wall, rss, self.results.read_bytes()


def check_results(data: bytes) -> dict:
    """Structural checks of a results file; returns its summary counts."""
    try:
        doc = json.loads(data)
        tracklets = sum(len(c["tracklets"]) for c in doc["cameras"])
        frames = doc["timing"]["frames_processed"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"results: malformed ({exc!r})") from exc
    if doc["unique_count"] != len(doc["clusters"]) or not doc["clusters"]:
        raise CheckFailed("results: unique_count does not match a non-empty cluster list")
    if tracklets <= 0 or frames <= 0:
        raise CheckFailed(f"results: {tracklets} tracklets over {frames} frames")
    return {"tracklets": tracklets, "frames": frames, "unique_count": doc["unique_count"]}


def iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# A fixed pure-Python workload that touches no mcmot code. It runs in a fresh
# interpreter each time, so that no one process's memory layout biases a run.
REFERENCE = """
import time
def work():
    acc, counts = 0, {}
    for i in range(1_500_000):
        acc += i * i
    for i in range(200_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
start = time.perf_counter()
work()
print(time.perf_counter() - start)
"""


def reference_s() -> float:
    """Time REFERENCE, interpreter start-up excluded.

    It takes about REF_NOMINAL_S on a quiet core of the reference host. Run
    between the timed processes, its mean time in a run tells how fast the
    host was, on average, during that run.
    """
    out = subprocess.run([sys.executable, "-I", "-c", REFERENCE], capture_output=True,
                         text=True, check=True, timeout=RUN_TIMEOUT_S)
    return float(out.stdout)


def measure(w: Workload, seconds: float) -> dict:
    """Untraced closed loop; returns end-to-end metrics and sample counts."""
    # `simulate` has already compiled the bytecode, as any earlier use would.
    raw = {"wall_s": [], "setup_s": [], "parallel_wall_s": []}
    rss = []
    probe = [sys.executable, "-c", "import mcmot.cli"]
    # Warm-up, checked but not timed: the first process after set-up is slower.
    if run_process(probe, w.log)[0] != 0:
        raise CheckFailed("importing mcmot.cli failed")
    ok, _, _, first = w.timed_run(mcmot(*w.command()))
    if not ok:
        raise CheckFailed("the warm-up run failed")
    attempted, failed = 1, 0
    refs = [reference_s()]
    deadline = time.perf_counter() + seconds
    while attempted < 2 or time.perf_counter() < deadline or len(raw["setup_s"]) < w.probes:
        if attempted % 3 == 1 or len(raw["setup_s"]) < w.probes:
            # Set-up probes are spread over the window, one before every third run.
            rc, wall, _ = run_process(probe, w.log)
            if rc != 0:
                raise CheckFailed(f"importing mcmot.cli exited {rc}")
            raw["setup_s"].append(wall)
            refs.append(reference_s())
        attempted += 1
        ok, wall, peak, data = w.timed_run(mcmot(*w.command()))
        refs.append(reference_s())
        if ok and data == first:
            raw["wall_s"].append(wall)
            rss.append(peak)
        else:
            failed += 1
            if ok:
                sys.stderr.write(f"{w.name}: results bytes of run {attempted} "
                                 f"differ from the first run\n")
    # Mean sample over mean reference: see the module docstring.
    host_speed = REF_NOMINAL_S / statistics.mean(refs)
    # --parallel runs go after the window, so that their two workers never
    # share it with the sequential runs. They are scaled by its host speed.
    for _ in range(w.spec.get("parallel_runs", 0)):
        attempted += 1
        ok, wall, _, data = w.timed_run(mcmot(*w.command(parallel=True)))
        if ok and data == first:
            raw["parallel_wall_s"].append(wall)
        else:
            failed += 1
            if ok:
                sys.stderr.write(f"{w.name}: --parallel results bytes differ from the "
                                 f"sequential ones\n")
    if not raw["wall_s"]:
        raise CheckFailed("no sequential run succeeded")
    summary = check_results(first)

    w.results.write_bytes(first)
    eval_path = w.tmp / "eval.json"
    rc, _, _ = run_process(mcmot("eval", "--results", str(w.results), "--truth",
                                 str(w.scn / "truth.json"), "--output", str(eval_path)), w.log)
    if rc != 0:
        raise CheckFailed(f"eval exited {rc}: {w.log.read_text(errors='replace')[-2000:]}")
    quality = json.loads(eval_path.read_text(encoding="utf-8"))
    if quality["f1"] is None:
        raise CheckFailed("eval reported an undefined F1")

    scaled = {k: statistics.mean(v) * host_speed for k, v in raw.items() if v}
    wall_s = scaled["wall_s"]
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": {**{f"raw {k}": v for k, v in raw.items() if v},
                    "peak_rss_mb": rss, "reference_s": refs},
        "metrics": {
            "wall_s": wall_s,
            "setup_s": scaled["setup_s"],
            "frames_per_s": summary["frames"] / wall_s,
            "tracklets_per_s": summary["tracklets"] / wall_s,
            "peak_rss_mb": statistics.median(rss),
            "id_f1": quality["f1"],
        },
        # Printed only: parallel_wall_s exists on one workload, and the rest
        # are 0 or fixed counts on the seed code, so none can carry a bound.
        "extra": {
            **({"parallel_wall_s": (scaled["parallel_wall_s"], "s")}
               if "parallel_wall_s" in scaled else {}),
            "host_speed": (host_speed, "ratio"),
            "error_rate": (failed / attempted, "ratio"),
            "count_l2_error": (quality["l2_error"], "count"),
            "unique_count": (summary["unique_count"], "count"),
            "tracklets": (summary["tracklets"], "count"),
            "frames_processed": (summary["frames"], "count"),
        },
    }


def measure_trace(w: Workload, seconds: float) -> dict:
    """Alternate untraced and traced runs of the sequential command."""
    args = w.command()
    untraced_argv = mcmot(*args)
    spans_file = w.tmp / "spans.json"
    walls, traced_walls, per_run, attempted, failed = [], [], [], 0, 0
    first = None
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        for traced in (False, True):
            attempted += 1
            run_id = f"{w.name}-{attempted}"
            argv = ([sys.executable, str(HERE / "spans.py"), str(spans_file), run_id, "--", *args]
                    if traced else untraced_argv)
            spans_file.unlink(missing_ok=True)
            ok, wall, _, data = w.timed_run(argv)
            if ok:
                first = first or data
                if data != first:
                    ok = False
                    sys.stderr.write(f"{w.name}: results bytes differ between runs "
                                     f"({'traced' if traced else 'untraced'} run {attempted})\n")
            if ok and traced:
                doc = json.loads(spans_file.read_text(encoding="utf-8"))
                m = spans.layer_metrics(doc["spans"], doc["patched"])
                layer_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
                if abs(layer_sum - m["trace.wall_s"]) > 1e-6 * max(1.0, m["trace.wall_s"]):
                    ok = False
                    sys.stderr.write(f"{w.name}: layer self times {layer_sum} do not add up "
                                     f"to the traced wall {m['trace.wall_s']}\n")
                else:
                    per_run.append(m)
            if not ok:
                failed += 1
                continue
            (traced_walls if traced else walls).append(wall)
    if first is None or not per_run or not walls:
        raise CheckFailed("no traced/untraced pair succeeded")
    check_results(first)
    # The fastest traced run, whole, so that its layer self times add up.
    metrics = dict(sorted(min(per_run, key=lambda m: m["trace.wall_s"]).items()))
    metrics["trace.overhead_s"] = min(traced_walls) - min(walls)
    return {"attempted": attempted, "failed": failed,
            "samples": {"trace.wall_s": [m["trace.wall_s"] for m in per_run],
                        "untraced_wall_s": walls, "traced_wall_s": traced_walls},
            "metrics": metrics, "extra": {"error_rate": (failed / attempted, "ratio")}}


def report(name: str, result: dict, declared: list[dict], correct: bool) -> dict:
    """Print a readable summary; return the last-line JSON object."""
    units = {m["name"]: m["unit"] for m in declared}
    print(f"== {name}: {result['attempted']} runs attempted, {result['failed']} failed")
    for key, values in result["samples"].items():
        lo, hi = iqr(values)
        print(f"   {key:<28} median {statistics.median(values):.4f}  "
              f"p25 {lo:.4f}  p75 {hi:.4f}  (n={len(values)})")
    for key, value in result["metrics"].items():
        print(f"   {key:<40} {value:.6g} {units.get(key, '?')}")
    for key, (value, unit) in result["extra"].items():
        print(f"   {key:<40} {value:.6g} {unit}")
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        raise CheckFailed(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[int, dict]:
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        w = Workload(name, seed, tmp, tiny)
        w.setup()
        result = (measure_trace if trace else measure)(w, seconds)
        correct = result["failed"] == 0
        line = report(name, result, declared, correct)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another workload still uses it
    return (0 if correct else 1), line


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and two set-up probes (the benchmark's own tests)")
    args = ap.parse_args(argv)
    if not (SRC / "mcmot" / "cli.py").is_file():
        print(f"error: no mcmot sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            code, line = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except CheckFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            code, line = 1, None
        status = max(status, code)
        if line is not None:
            print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    # On SIGTERM, unwind as on an error: kill and reap the running child and
    # remove the temporary inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
