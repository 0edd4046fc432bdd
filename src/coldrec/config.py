"""Flat `key = value` configuration files with dotted names."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .data import DataError
from .wmf import WmfConfig
from .zoo import TrainConfig


def parse_kv_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def write_kv_file(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


class _Reader:
    """Typed reads from a parsed key-value file; `reject_unknown` fails on keys never read.

    A value that does not cast, or casts to a non-finite float, is a `DataError`.
    """

    def __init__(self, values: dict[str, str], path):
        self.values = dict(values)
        self.path = path
        self.used: set[str] = set()

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.values) - self.used)
        if unknown:
            raise DataError(f"{self.path}: unknown key(s) {', '.join(map(repr, unknown))}")

    def get(self, key, default=None, cast=str):
        if key not in self.values:
            if default is None:
                raise DataError(f"{self.path}: missing required key {key!r}")
            return default
        self.used.add(key)
        raw = self.values[key]
        try:
            value = cast(raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(raw)
        except ValueError:
            raise DataError(f"{self.path}: key {key!r} has invalid value {raw!r}") from None
        return value


@dataclass
class PipelineConfig:
    triples: str
    artist_map: str
    documents: str
    annotations: str
    kb: str
    spectrogram_dir: str
    out_dir: str

    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    eval_k: int = 500
    channel_scale: float = 0.125
    vocab_cap: int = 10000
    patch_frames: int = 96
    val_fraction: float = 0.1

    wmf_songs: WmfConfig = field(default_factory=WmfConfig)
    wmf_artists: WmfConfig = field(default_factory=WmfConfig)
    train_artist: TrainConfig = field(default_factory=TrainConfig)
    train_track: TrainConfig = field(default_factory=TrainConfig)
    train_fusion: TrainConfig = field(default_factory=TrainConfig)

    def out(self, *parts) -> str:
        return os.path.join(self.out_dir, *parts)


def _wmf_from(r: _Reader, prefix: str, seed: int) -> WmfConfig:
    return WmfConfig(
        k=r.get(f"{prefix}.k", 200, int),
        alpha=r.get(f"{prefix}.alpha", 40.0, float),
        lam=r.get(f"{prefix}.lambda", 0.01, float),
        iterations=r.get(f"{prefix}.iterations", 15, int),
        init_scale=r.get(f"{prefix}.init_scale", 0.01, float),
        seed=seed,
    )


def _train_from(r: _Reader, prefix: str, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=r.get(f"{prefix}.batch", 32, int),
        max_epochs=r.get(f"{prefix}.epochs", 100, int),
        patience=r.get(f"{prefix}.patience", 10, int),
        lr=r.get(f"{prefix}.lr", 0.001, float),
        seed=seed,
    )


def load_pipeline_config(path, out_override=None, seed_override=None) -> PipelineConfig:
    r = _Reader(parse_kv_file(path), path)
    base = os.path.dirname(os.path.abspath(path))

    def p(key, default=None):
        value = r.get(key, default)
        return os.path.join(base, value) if value and not os.path.isabs(value) else value

    seed = r.get("seed", 0, int)
    if seed_override is not None:
        seed = seed_override
    out_dir = p("paths.out", "out")
    ratios = (
        r.get("split.train", 0.8, float),
        r.get("split.val", 0.1, float),
        r.get("split.test", 0.1, float),
    )
    cfg = PipelineConfig(
        triples=p("paths.triples"),
        artist_map=p("paths.artist_map"),
        documents=p("paths.documents"),
        annotations=p("paths.annotations"),
        kb=p("paths.kb"),
        spectrogram_dir=p("paths.spectrograms"),
        out_dir=out_override or out_dir,
        seed=seed,
        split_ratios=ratios,
        eval_k=r.get("eval.k", 500, int),
        channel_scale=r.get("scale", 0.125, float),
        vocab_cap=r.get("text.vocab_cap", 10000, int),
        patch_frames=r.get("audio.patch_frames", 96, int),
        val_fraction=r.get("train.val_fraction", 0.1, float),
        wmf_songs=_wmf_from(r, "wmf.songs", seed),
        wmf_artists=_wmf_from(r, "wmf.artists", seed),
        train_artist=_train_from(r, "train.artist", seed),
        train_track=_train_from(r, "train.track", seed),
        train_fusion=_train_from(r, "train.fusion", seed),
    )
    r.reject_unknown()
    return cfg


def load_synthetic_spec(path):
    from .synth import SyntheticSpec

    r = _Reader(parse_kv_file(path), path)
    spec = SyntheticSpec(
        n_users=r.get("users", 500, int),
        n_artists=r.get("artists", 200, int),
        songs_per_artist=r.get("songs_per_artist", 10, int),
        latent_dim=r.get("latent_dim", 16, int),
        text_noise=r.get("text_noise", 0.4, float),
        audio_noise=r.get("audio_noise", 0.2, float),
        density=r.get("density", 0.04, float),
        mean_extra_plays=r.get("mean_extra_plays", 2.0, float),
        bins=r.get("bins", 32, int),
        frames=r.get("frames", 180, int),
        n_text_terms=r.get("text_terms", 80, int),
        doc_tokens=r.get("doc_tokens", 120, int),
        n_templates=r.get("templates", 8, int),
        seed=r.get("seed", 0, int),
    )
    r.reject_unknown()
    spec.validate()
    return spec
