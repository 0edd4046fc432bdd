"""Flat `key = value` configuration files with dotted names."""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, field

from .data import PARTS, DataError, check_ratios
from .evaluate import check_cutoff
from .textfeat import check_vocab_cap
from .wmf import WmfConfig
from .zoo import TrainConfig, check_patch_frames, check_scale


def _split(line: str) -> tuple[str, str, str]:
    """A line's stripped (key, "=", value); `#` at its start or after whitespace opens a comment."""
    key, eq, value = re.split(r"(?<!\S)#", line, maxsplit=1)[0].partition("=")
    return key.strip(), eq, value.strip()


def parse_kv_file(path) -> dict[str, str]:
    """The `key = value` lines of a file by key; a key given twice is a DataError."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            key, eq, value = _split(raw)
            if key and not eq:
                raise DataError(f"{path}:{lineno}: expected `key = value`")
            if eq:
                if key in first_line:
                    raise DataError(f"{path}:{lineno}: key {key!r} is given again; "
                                    f"line {first_line[key]} gives it first")
                first_line[key] = lineno
                values[key] = value
    return values


def write_kv_file(path, values: dict) -> None:
    """Write `key = value` lines; a pair `parse_kv_file` would not read back is a ValueError."""
    pairs = [(str(key), str(value)) for key, value in values.items()]
    for key, value in pairs:
        line = f"{key} = {value}"
        if not key or "\n" in line or "\r" in line or _split(line) != (key, "=", value):
            raise ValueError(f"config key {key!r}: {line!r} would not read back")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in pairs)


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

    def get(self, key, default=MISSING, cast=str):
        if key not in self.values:
            if default is MISSING:
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

    def fields(self, cls, table: dict[str, str], prefix: str = "") -> dict:
        """Values for the fields of dataclass ``cls`` named in ``table`` (key -> field).

        A missing key takes its field's default, and a value is cast to the
        default's type; a field without a default is a required string.
        """
        values = {}
        for key, name in table.items():
            default = getattr(cls, name, MISSING)  # dataclasses keep plain defaults on the class
            cast = str if default is MISSING else type(default)
            values[name] = self.get(prefix + key, default, cast)
        return values


@dataclass
class PipelineConfig:
    triples: str
    artist_map: str
    documents: str
    annotations: str
    kb: str
    spectrogram_dir: str
    out_dir: str = "out"

    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    eval_k: int = 500
    channel_scale: float = 0.125
    vocab_cap: int = 10000
    patch_frames: int = 96

    wmf_songs: WmfConfig = field(default_factory=WmfConfig)
    wmf_artists: WmfConfig = field(default_factory=WmfConfig)
    train_artist: TrainConfig = field(default_factory=TrainConfig)
    train_track: TrainConfig = field(default_factory=TrainConfig)
    train_fusion: TrainConfig = field(default_factory=TrainConfig)

    def out(self, *parts) -> str:
        return os.path.join(self.out_dir, *parts)


# Config key -> field name, one table per dataclass. Relative paths resolve
# against the config file's directory; the split keys fill `split_ratios` in
# order; the WMF and training keys follow `wmf.<songs|artists>.` and
# `train.<artist|track|fusion>.`.
_PATH_KEYS = {"paths.triples": "triples", "paths.artist_map": "artist_map",
              "paths.documents": "documents", "paths.annotations": "annotations",
              "paths.kb": "kb", "paths.spectrograms": "spectrogram_dir", "paths.out": "out_dir"}
_PIPELINE_KEYS = {"seed": "seed", "eval.k": "eval_k", "scale": "channel_scale",
                  "text.vocab_cap": "vocab_cap", "audio.patch_frames": "patch_frames"}
_SPLIT_KEYS = tuple(f"split.{part}" for part in PARTS)
_WMF_KEYS = {"k": "k", "alpha": "alpha", "lambda": "lam", "iterations": "iterations"}
_TRAIN_KEYS = {"batch": "batch_size", "epochs": "max_epochs", "patience": "patience", "lr": "lr"}
_SYNTH_KEYS = {"users": "n_users", "artists": "n_artists", "songs_per_artist": "songs_per_artist",
               "latent_dim": "latent_dim", "text_noise": "text_noise",
               "audio_noise": "audio_noise", "density": "density",
               "mean_extra_plays": "mean_extra_plays", "bins": "bins", "frames": "frames",
               "text_terms": "n_text_terms", "doc_tokens": "doc_tokens",
               "templates": "n_templates", "seed": "seed"}


def _in_range(path, key: str, check, *args) -> None:
    """Run `check(*args)`, the function that guards `key`'s value where it is
    used; its ValueError becomes one DataError naming the file and the key."""
    try:
        check(*args)
    except ValueError as exc:
        raise DataError(f"{path}: {key}: {exc}") from None


def load_pipeline_config(path) -> PipelineConfig:
    r = _Reader(parse_kv_file(path), path)
    base = os.path.dirname(os.path.abspath(path))
    paths = r.fields(PipelineConfig, _PATH_KEYS)
    for key, name in _PATH_KEYS.items():
        if not paths[name]:
            raise DataError(f"{path}: {key}: empty path")
        paths[name] = os.path.join(base, paths[name])
    settings = r.fields(PipelineConfig, _PIPELINE_KEYS)
    split_ratios = tuple(r.get(key, default, float) for key, default
                         in zip(_SPLIT_KEYS, PipelineConfig.split_ratios))
    _in_range(path, "eval.k", check_cutoff, settings["eval_k"])
    _in_range(path, "scale", check_scale, settings["channel_scale"])
    _in_range(path, "audio.patch_frames", check_patch_frames, settings["patch_frames"])
    _in_range(path, "text.vocab_cap", check_vocab_cap, settings["vocab_cap"])
    _in_range(path, "split.*", check_ratios, split_ratios)

    def nested(cls, table, prefix):
        value = cls(**r.fields(cls, table, prefix))
        _in_range(path, f"{prefix}*", value.validate)
        return value

    cfg = PipelineConfig(
        **paths,
        **settings,
        split_ratios=split_ratios,
        wmf_songs=nested(WmfConfig, _WMF_KEYS, "wmf.songs."),
        wmf_artists=nested(WmfConfig, _WMF_KEYS, "wmf.artists."),
        train_artist=nested(TrainConfig, _TRAIN_KEYS, "train.artist."),
        train_track=nested(TrainConfig, _TRAIN_KEYS, "train.track."),
        train_fusion=nested(TrainConfig, _TRAIN_KEYS, "train.fusion."),
    )
    r.reject_unknown()
    return cfg


def load_synthetic_spec(path):
    from .synth import SyntheticSpec

    r = _Reader(parse_kv_file(path), path)
    spec = SyntheticSpec(**r.fields(SyntheticSpec, _SYNTH_KEYS))
    r.reject_unknown()
    try:
        spec.validate(key={name: key for key, name in _SYNTH_KEYS.items()}.get)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return spec
