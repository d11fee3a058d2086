"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or check captured output)."""

import os
import time
from itertools import permutations

import numpy as np
import pytest

from mcmot.assignment import solve_assignment
from mcmot.association import AssociationConfig, associate_multicamera
from mcmot.config import PipelineConfig, study2_preset
from mcmot.kalman import KalmanFilter, KalmanState
from mcmot.pipeline import run_cameras, run_pipeline
from mcmot.refine import (
    ConfusionCounts,
    RefineConfig,
    id_switches,
    match_tracklets_to_identities,
    refine,
)
from mcmot.sim import ScenarioConfig, generate
from mcmot.tracker import TrackerConfig, Tracklet
from mcmot.geometry import BoundingBox


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def pair_total(cost: np.ndarray, pairs) -> float:
    """Sum matched costs in ascending row order (common evaluator for the
    solver and the brute-force oracle, so float sums are comparable)."""
    ordered = sorted(pairs)
    return float(np.sum(np.array([cost[r, c] for r, c in ordered])))


def brute_force_best(cost: np.ndarray) -> float:
    """Exhaustive minimum over all maximum-cardinality matchings."""
    c = np.asarray(cost, dtype=float)
    transposed = c.shape[0] > c.shape[1]
    work = c.T if transposed else c
    n_rows, n_cols = work.shape
    best = None
    rows = range(n_rows)
    for perm in permutations(range(n_cols), n_rows):
        pairs = [(col, row) if transposed else (row, col) for row, col in zip(rows, perm)]
        total = pair_total(c, pairs)
        if best is None or total < best:
            best = total
    return best


def test_criterion_1_assignment_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        shape = rng.integers(1, 7, 2)
        cost = rng.uniform(0, 10, tuple(shape))
        m = solve_assignment(cost)
        assert len(m.pairs) == min(shape)
        got = pair_total(cost, m.pairs)
        want = brute_force_best(cost)
        assert got == want, f"{got} != {want} for shape {shape}"
    elapsed = time.perf_counter() - start
    report(1, "assignment oracle", elapsed < 5.0, f"1000 matrices in {elapsed:.2f}s")


def _random_states(rng, n):
    means = np.empty((n, 8))
    means[:, 0] = rng.uniform(10, 500, n)
    means[:, 1] = rng.uniform(10, 500, n)
    means[:, 2] = rng.uniform(0.3, 2.0, n)
    means[:, 3] = rng.uniform(20, 200, n)
    means[:, 4:] = rng.normal(0, 2, (n, 4))
    a = rng.normal(size=(n, 8, 8))
    covs = a @ a.transpose(0, 2, 1) / 50.0 + np.eye(8)[None] * rng.uniform(0.5, 2.0, (n, 1, 1))
    return means, covs


def test_criterion_2_kalman_oracle():
    start = time.perf_counter()
    kf = KalmanFilter()
    rng = np.random.default_rng(1002)

    # Gating distances vs. the explicit-inverse oracle on 1000 random states.
    means, covs = _random_states(rng, 1000)
    wp = kf.profile.std_weight_position
    for i in range(1000):
        s = KalmanState(means[i], covs[i])
        zs = means[i, None, :4] + rng.normal(0, 5, (3, 4))
        zs[:, 3] = np.abs(zs[:, 3]) + 1.0
        got = kf.gating_distance(s, zs)
        h = means[i, 3]
        r = np.diag(np.array([wp * h, wp * h, 1e-1, wp * h]) ** 2)
        s_inv = np.linalg.inv(covs[i, :4, :4] + r)
        diff = zs - means[i, :4]
        want = np.einsum("mi,ij,mj->m", diff, s_inv, diff)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    # Symmetric PSD covariance through 100-step random predict/update
    # interleavings, 1000 seeds evolved simultaneously (one seed per lane,
    # choices and measurement noise drawn per-lane from that seed).
    lanes = 1000
    lane_rngs = [np.random.default_rng(seed) for seed in range(lanes)]
    z0 = np.array([[r.uniform(50, 500), r.uniform(50, 500), r.uniform(0.3, 2), r.uniform(20, 200)]
                   for r in lane_rngs])
    choices = np.array([r.random(100) < 0.5 for r in lane_rngs])
    noise = np.array([r.normal(0, 3, (100, 4)) for r in lane_rngs])

    means = np.zeros((lanes, 8))
    means[:, :4] = z0
    covs = np.stack([kf.initiate(z0[i]).covariance for i in range(lanes)])
    for step in range(100):
        pred = choices[:, step]
        upd = ~pred
        if pred.any():
            m, c = kf.predict_batch(means[pred], covs[pred])
            means[pred], covs[pred] = m, c
        if upd.any():
            zs = means[upd][:, :4] + noise[upd, step]
            zs[:, 3] = np.maximum(zs[:, 3], 1.0)
            m, c = kf.update_batch(means[upd], covs[upd], zs)
            means[upd], covs[upd] = m, c
        asym = np.abs(covs - covs.transpose(0, 2, 1)).max()
        min_eig = np.linalg.eigvalsh(covs).min()
        assert asym <= 1e-9, f"asymmetry {asym} at step {step}"
        assert min_eig >= -1e-9, f"eigenvalue {min_eig} at step {step}"

    elapsed = time.perf_counter() - start
    report(2, "kalman oracle", elapsed < 10.0, f"{elapsed:.2f}s")


def zero_noise_scenario(seed, identities=10, frames=300, cameras=3, dim=32):
    return ScenarioConfig(
        seed=seed,
        cameras=cameras,
        identities=identities,
        frames=frames,
        embedding_dim=dim,
        identity_min_separation=1.0,
    )


def test_criterion_3_zero_noise_end_to_end():
    start = time.perf_counter()
    pc = PipelineConfig(tracker=TrackerConfig(), association=AssociationConfig(threshold=0.5))
    for seed in range(20):
        truth, streams = generate(zero_noise_scenario(seed))
        res = run_pipeline(streams, pc, total_frames=300)
        switches = sum(
            id_switches(res.camera_tracklets[cam], truth.frames_of(cam)) for cam in range(3)
        )
        assert res.unique_count == 10, f"seed {seed}: unique_count {res.unique_count}"
        assert switches == 0, f"seed {seed}: {switches} ID switches"
    elapsed = time.perf_counter() - start
    report(3, "zero-noise end-to-end exactness", elapsed < 30.0, f"20 seeds in {elapsed:.1f}s")


def test_criterion_4_margin_guaranteed_clustering():
    pc = PipelineConfig(tracker=TrackerConfig())
    for seed in range(20):
        cfg = ScenarioConfig(
            seed=seed,
            cameras=3,
            identities=8,
            frames=100,
            embedding_dim=64,
            identity_min_separation=1.3,
            embedding_noise_sigma=0.05,
        )
        truth, streams = generate(cfg)
        runs = run_cameras(streams, pc)
        per_camera = {r.camera_id: r.tracklets for r in runs}

        identity = {}
        for cam, tracklets in per_camera.items():
            mapped = match_tracklets_to_identities(tracklets, truth.frames_of(cam))
            identity.update({key: val[0] for key, val in mapped.items()})
        means = {
            (t.camera_id, t.track_id): t.embedding
            for tracklets in per_camera.values()
            for t in tracklets
        }
        keys = list(means)
        d_in, d_out = 0.0, np.inf
        for i, ka in enumerate(keys):
            for kb in keys[i + 1 :]:
                d = float(np.linalg.norm(means[ka] - means[kb]))
                if identity[ka] == identity[kb]:
                    d_in = max(d_in, d)
                else:
                    d_out = min(d_out, d)
        # The margin precondition is part of the construction; verify it.
        assert d_in <= 0.2 and d_out >= 1.0, f"seed {seed}: d_in={d_in:.3f} d_out={d_out:.3f}"

        want = {}
        for key, ident in identity.items():
            want.setdefault(ident, set()).add(key)
        want_partition = {frozenset(v) for v in want.values()}
        for tau in (0.3, 0.4, 0.5, 0.6):
            for method in ("euclidean", "euclidean_voting"):
                clusters = associate_multicamera(
                    per_camera, AssociationConfig(method=method, threshold=tau)
                )
                got = {frozenset(c.members) for c in clusters}
                assert got == want_partition, f"seed {seed} tau {tau} method {method}"
    report(4, "margin-guaranteed clustering", True, "20 seeds x 4 taus x 2 methods")


def test_criterion_5_noise_robustness():
    # Threshold frozen after calibration against the oracle-verified
    # pipeline: unique_count within +-1 of truth in at least 90% of runs.
    pc = PipelineConfig(
        tracker=TrackerConfig(),
        association=AssociationConfig(threshold=0.5),
        refine=RefineConfig(min_track_length=5),
    )
    hits = 0
    for seed in range(100):
        cfg = ScenarioConfig(
            seed=seed,
            cameras=2,
            identities=20,
            frames=100,
            embedding_dim=64,
            identity_min_separation=1.0,
            embedding_noise_sigma=0.1,
            miss_prob=0.1,
            false_positive_rate=0.5,
        )
        _, streams = generate(cfg)
        res = run_pipeline(streams, pc, total_frames=100)
        if abs(res.unique_count - 20) <= 1:
            hits += 1
    report(5, "noise robustness", hits >= 90, f"{hits}/100 within +-1")


def test_criterion_6_metric_fidelity():
    counts_a = ConfusionCounts(tp=3, fp=0, fn=4)
    counts_b = ConfusionCounts(tp=5, fp=1, fn=2)
    checks = [
        (round(100 * counts_a.accuracy, 1), 42.9),
        (round(100 * counts_a.recall, 1), 42.9),
        (round(100 * counts_a.f1, 1), 60.0),
        (round(100 * counts_b.accuracy, 1), 62.5),
        (round(100 * counts_b.recall, 1), 71.4),
        (round(100 * counts_b.f1, 1), 76.9),
    ]
    ok = all(got == want for got, want in checks)
    report(6, "metric fidelity", ok, str(checks))


def test_criterion_7_refinement_boundary():
    cfg = study2_preset().refine

    def tracklet(w, h):
        return Tracklet(
            camera_id=0,
            track_id=1,
            frames=list(range(10)),
            boxes=[BoundingBox(0, 0, w, h)] * 10,
            confidences=[0.9] * 10,
            embedding=None,
        )

    kept = refine([tracklet(61, 51)], cfg)
    dropped = refine([tracklet(60, 51)], cfg)
    report(7, "refinement boundary", len(kept) == 1 and len(dropped) == 0)


def tracklet_fingerprint(camera_tracklets):
    return [
        (
            cam,
            t.track_id,
            tuple(t.frames),
            tuple((b.x, b.y, b.w, b.h) for b in t.boxes),
            tuple(t.confidences),
            None if t.embedding is None else t.embedding.tobytes(),
        )
        for cam in sorted(camera_tracklets)
        for t in camera_tracklets[cam]
    ]


@pytest.fixture(scope="module")
def benchmark_scenario():
    cfg = ScenarioConfig(
        seed=1008, cameras=3, identities=30, frames=300, embedding_dim=32,
        identity_min_separation=1.0,
    )
    truth, streams = generate(cfg)
    assert all(len(s) == 30 * 300 for s in streams.values())  # 30 detections/frame
    return streams


BENCH_CONFIG = PipelineConfig(
    tracker=TrackerConfig(nn_budget=25), association=AssociationConfig(threshold=0.5)
)


def test_criterion_8_throughput(benchmark_scenario):
    streams = benchmark_scenario
    # Warm up BLAS/numpy dispatch outside the timed region.
    run_pipeline({0: streams[0][: 30 * 50]}, BENCH_CONFIG, total_frames=50)

    res_seq = run_pipeline(streams, BENCH_CONFIG, total_frames=300)
    fps = res_seq.effective_fps
    assert res_seq.frames_processed == 900
    assert res_seq.unique_count == 30
    report(8, "throughput >= 500 fps single-threaded", fps >= 500.0, f"{fps:.0f} fps")


def test_criterion_8_parallel_bit_identical(benchmark_scenario):
    streams = benchmark_scenario
    res_seq = run_pipeline(streams, BENCH_CONFIG, total_frames=300)
    res_par = run_pipeline(streams, BENCH_CONFIG, total_frames=300, parallel=True)
    identical = tracklet_fingerprint(res_par.camera_tracklets) == tracklet_fingerprint(
        res_seq.camera_tracklets
    ) and res_par.unique_count == res_seq.unique_count
    cores = os.cpu_count() or 1
    if cores >= 4:
        speedup = res_seq.wall_time_s / res_par.wall_time_s
        report(
            8,
            "parallel bit-identical and >= 1.8x on >= 4 cores",
            identical and speedup >= 1.8,
            f"speedup {speedup:.2f}x on {cores} cores",
        )
    else:
        report(
            8,
            "parallel bit-identical (speedup clause needs >= 4 cores)",
            identical,
            f"only {cores} core(s): speedup assertion skipped",
        )
        pytest.skip(f"parallel speedup clause requires >= 4 cores, have {cores}")


def test_criterion_9_determinism(tmp_path):
    from mcmot.cli import main

    scenario_cfg = tmp_path / "scn.json"
    scenario_cfg.write_text(
        '{"cameras": 3, "identities": 6, "frames": 80, "embedding_dim": 16,'
        ' "embedding_noise_sigma": 0.05, "miss_prob": 0.05, "false_positive_rate": 0.2}'
    )
    outputs = []
    for run in ("a", "b"):
        scn = tmp_path / f"scn_{run}"
        res = tmp_path / f"results_{run}.json"
        assert main(["simulate", "--config", str(scenario_cfg), "--seed", "77", "--out", str(scn)]) == 0
        assert (
            main(
                [
                    "count",
                    "--scenario", str(scn),
                    "--method", "both",
                    "--threshold", "0.5",
                    "--output", str(res),
                ]
            )
            == 0
        )
        outputs.append(res.read_bytes())
    report(9, "end-to-end determinism", outputs[0] == outputs[1], "byte-identical ResultsFiles")
