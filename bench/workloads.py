"""The benchmark's workloads: a synthetic dataset spec plus a pipeline config.

A workload is plain data so that run.py can record it without importing
coldrec; `write_inputs` turns one into files on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

# The config of scripts/run_synthetic_experiment.py and of the acceptance
# suite's end-to-end fixture. Paths are relative to the config file.
DESK_CONFIG = {
    "paths.triples": "data/triples.tsv",
    "paths.artist_map": "data/artist_map.tsv",
    "paths.documents": "data/documents.jsonl",
    "paths.annotations": "data/annotations.jsonl",
    "paths.kb": "data/kb.jsonl",
    "paths.spectrograms": "data/spectrograms",
    "paths.out": "out",
    "scale": 0.125,
    "eval.k": 500,
    "audio.patch_frames": 96,
    "wmf.songs.k": 16, "wmf.songs.iterations": 15,
    "wmf.artists.k": 16, "wmf.artists.iterations": 15,
    "train.artist.epochs": 40, "train.artist.patience": 6,
    "train.track.epochs": 25, "train.track.patience": 5,
    "train.fusion.epochs": 60, "train.fusion.patience": 8,
}
DESK_SYNTH = {"n_users": 500, "n_artists": 200, "songs_per_artist": 10, "latent_dim": 16}

CONFIG_NAME = "pipeline.cfg"

# MAP@500 of the full desk config at seed 3 (ROADMAP baseline), to 4 decimals.
REFERENCE_SEED = 3
REFERENCE_MAP = {"upper-bound": 0.7296, "mm-lf-h1": 0.1159, "mm-lf-lin": 0.1119,
                 "audio": 0.0941, "sem-emb": 0.0914}


def capped_epochs(epochs: int) -> dict:
    """Train every net for exactly ``epochs`` epochs.

    Patience equal to the cap can never stop training early, so the work
    per pass does not depend on the seed. The fusion heads and sem-emb
    learn at 10x the default rate: at the default, a 2-epoch sem-emb fell
    below the random baseline on some seeds and failed the output check.
    """
    return {"train.fusion.lr": 0.01, **{
        f"train.{net}.{key}": epochs
        for net in ("artist", "track", "fusion") for key in ("epochs", "patience")}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    config: dict


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-train",
            why="the acceptance dataset and config with training capped at 2 epochs "
                "per net: training-bound, mostly nn train steps and Adam",
            synth=DESK_SYNTH,
            config={**DESK_CONFIG, **capped_epochs(2)},
        ),
        Workload(
            name="wide-catalogue",
            why="1.25x users and items with 1 epoch per net: ALS, triple loading, "
                "batch-256 CNN inference and ranking grow with users x items",
            synth={**DESK_SYNTH, "n_users": 625, "n_artists": 250},
            config={**DESK_CONFIG, **capped_epochs(1)},
        ),
    )
}


def full_epochs(w: Workload) -> Workload:
    """The workload with the acceptance config's epochs and patience."""
    return replace(w, config=dict(DESK_CONFIG))


def spec_record(w: Workload, seed: int) -> dict:
    return {"synth": {**w.synth, "seed": seed}, "config": {**w.config, "seed": seed}}


def generate(w: Workload, seed: int):
    from coldrec import synth

    return synth.generate(synth.SyntheticSpec(**w.synth, seed=seed))


def write_inputs(w: Workload, seed: int, data, run_dir: str) -> None:
    """Write the generated dataset and the run's config into ``run_dir``."""
    from coldrec import synth
    from coldrec.config import write_kv_file

    synth.write_dataset(data, os.path.join(run_dir, "data"))
    write_kv_file(os.path.join(run_dir, CONFIG_NAME), {**w.config, "seed": seed})
