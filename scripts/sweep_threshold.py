#!/usr/bin/env python3
"""Sweep the association distance threshold and print the unique-person count
per method: the count is non-increasing in the threshold, and the sweep shows
where each method lands relative to the true identity count.

Example:
    python scripts/sweep_threshold.py --identities 10 --noise 0.1
"""

import argparse

import numpy as np

from mcmot.association import AssociationConfig, associate_multicamera
from mcmot.config import PipelineConfig
from mcmot.pipeline import run_cameras
from mcmot.sim import ScenarioConfig, generate
from mcmot.tracker import TrackerConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cameras", type=int, default=3)
    ap.add_argument("--identities", type=int, default=10)
    ap.add_argument("--frames", type=int, default=120)
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--taus", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 1.6])
    args = ap.parse_args()

    cfg = ScenarioConfig(
        seed=args.seed,
        cameras=args.cameras,
        identities=args.identities,
        frames=args.frames,
        embedding_dim=args.dim,
        embedding_noise_sigma=args.noise,
    )
    _, streams = generate(cfg)
    runs = run_cameras(streams, PipelineConfig(tracker=TrackerConfig()), total_frames=args.frames)
    per_camera = {r.camera_id: r.tracklets for r in runs}
    n_tracklets = sum(len(t) for t in per_camera.values())
    print(f"truth: {args.identities} identities, {n_tracklets} tracklets\n")

    methods = ("euclidean", "euclidean_voting")
    print("tau     " + "".join(f"{m:>18s}" for m in methods))
    for tau in np.asarray(args.taus, dtype=float):
        row = [
            len(associate_multicamera(per_camera, AssociationConfig(method=m, threshold=float(tau))))
            for m in methods
        ]
        print(f"{tau:5.2f}   " + "".join(f"{c:18d}" for c in row))


if __name__ == "__main__":
    main()
