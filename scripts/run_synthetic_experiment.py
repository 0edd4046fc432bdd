#!/usr/bin/env python3
"""Generate a synthetic dataset, run every pipeline stage, print the report.

Usage:
    python3 scripts/run_synthetic_experiment.py --out runs/demo [--seed 3]
        [--users 500 --artists 200 --songs-per-artist 10 --latent-dim 16]

The output directory will contain data/ (the generated dataset), out/ (all
pipeline artifacts) and pipeline.cfg (the exact configuration used). Each
stage's line shows its time and the process's RSS high-water mark after it.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coldrec import synth
from coldrec.config import load_pipeline_config, write_kv_file
from coldrec.pipeline import STAGES, run_stage


def build_config(run_dir: str, seed: int) -> str:
    """Write `run_dir`/pipeline.cfg; its paths are relative, and the config
    loader resolves them against the config file's directory, `run_dir`."""
    values = {
        "paths.triples": "data/triples.tsv",
        "paths.artist_map": "data/artist_map.tsv",
        "paths.documents": "data/documents.jsonl",
        "paths.annotations": "data/annotations.jsonl",
        "paths.kb": "data/kb.jsonl",
        "paths.spectrograms": "data/spectrograms",
        "paths.out": "out",
        "seed": seed,
        "scale": 0.125,
        "eval.k": 500,
        "audio.patch_frames": 96,
        "wmf.songs.k": 16, "wmf.songs.iterations": 15,
        "wmf.artists.k": 16, "wmf.artists.iterations": 15,
        "train.artist.epochs": 40, "train.artist.patience": 6,
        "train.track.epochs": 25, "train.track.patience": 5,
        "train.fusion.epochs": 60, "train.fusion.patience": 8,
    }
    path = os.path.join(run_dir, "pipeline.cfg")
    write_kv_file(path, values)
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/demo", help="run directory")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--users", type=int, default=500)
    ap.add_argument("--artists", type=int, default=200)
    ap.add_argument("--songs-per-artist", type=int, default=10)
    ap.add_argument("--latent-dim", type=int, default=16)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    spec = synth.SyntheticSpec(
        n_users=args.users,
        n_artists=args.artists,
        songs_per_artist=args.songs_per_artist,
        latent_dim=args.latent_dim,
        seed=args.seed,
    )
    t0 = time.time()
    print("generating synthetic dataset ...", flush=True)
    synth.write_dataset(synth.generate(spec), os.path.join(args.out, "data"))
    print(f"  done in {time.time() - t0:.1f}s")

    cfg = load_pipeline_config(build_config(args.out, args.seed))
    for stage in STAGES:
        t = time.time()
        run_stage(cfg, stage)
        # the process's RSS high-water mark so far (KiB on Linux), so the stage
        # that sets the run's peak is the first to show it
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"stage {stage:18s} {time.time() - t:7.1f}s {peak_mib:8.1f} MiB peak", flush=True)

    with open(cfg.out("report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    print(f"\ntotal {time.time() - t0:.1f}s\n")
    print(f"{'approach':<14s}{'MAP@500':>12s}{'users':>8s}")
    for approach, entry in sorted(report.items(), key=lambda kv: -kv[1]["map"]):
        print(f"{approach:<14s}{entry['map']:>12.4f}{entry['users']:>8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
