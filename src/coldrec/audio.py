"""Log-CQT spectrogram handling: file IO, patch sampling, synthesis."""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import DataError

MAGIC = b"CQTS"
VERSION = 1

# written into every file header; the loader parses them and ignores them
DEFAULT_SAMPLE_RATE = 22050
DEFAULT_HOP = 1024


@dataclass
class Spectrogram:
    data: np.ndarray  # (bins, frames) float32

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DataError(f"spectrogram must be a bins x frames matrix, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise DataError("spectrogram contains non-finite values")

    @property
    def bins(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> int:
        return self.data.shape[1]


def sample_patch(s: Spectrogram, length: int, seed: int, item_id: str = "") -> np.ndarray:
    """Uniformly sample one contiguous length-frame patch, a (bins, length) float32 array.

    Deterministic per (item_id, seed): the start position is drawn from a
    generator keyed on both.
    """
    if s.frames < length:
        raise DataError(f"spectrogram of song {item_id!r} has shape {s.data.shape}, "
                        f"too short for a patch of shape {(s.bins, length)}")
    rng = np.random.default_rng([seed, _id_key(item_id)])
    start = int(rng.integers(0, s.frames - length + 1))
    return s.data[:, start:start + length].copy()


def _id_key(item_id: str) -> int:
    return zlib.crc32(item_id.encode("utf-8"))


def synth_spectrogram(bins: int, frames: int, template_weights: np.ndarray,
                      seed: int, noise: float = 0.0) -> Spectrogram:
    """Deterministic synthetic spectrogram for desk-scale experiments.

    The frequency axis is divided into one band per template weight; band j
    carries a fixed positive pattern scaled by weight j, plus non-negative
    seeded noise of the given amplitude.
    """
    if bins < 1 or frames < 1:
        raise ValueError("bins and frames must be >= 1")
    weights = np.asarray(template_weights, dtype=np.float64)
    n_templates = len(weights)
    out = np.zeros((bins, frames))
    t = np.arange(frames)
    for j, w in enumerate(weights):
        lo = j * bins // n_templates
        hi = (j + 1) * bins // n_templates
        if hi <= lo:
            continue
        # fixed per-band pattern: strictly positive, mildly modulated in time
        pattern = 1.0 + 0.5 * np.sin(2 * np.pi * (j + 1) * t / max(frames, 2))
        out[lo:hi, :] += w * pattern[None, :]
    if noise > 0:
        rng = np.random.default_rng(seed)
        out += noise * rng.random((bins, frames))
    return Spectrogram(out.astype(np.float32))


def save_spectrogram(s: Spectrogram, path) -> None:
    payload = np.ascontiguousarray(s.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIII", VERSION, *s.data.shape, DEFAULT_SAMPLE_RATE, DEFAULT_HOP))
        fh.write(payload.tobytes())


def load_spectrogram(path) -> Spectrogram:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: bad magic, not a spectrogram file")
    header = raw[4:24]
    if len(header) < 20:
        raise DataError(f"{path}: truncated header")
    version, bins, frames, _sample_rate, _hop = struct.unpack("<IIIII", header)
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    payload = raw[24:]
    expected = bins * frames * 4
    if len(payload) != expected:
        raise DataError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(bins, frames)
    return Spectrogram(data.copy())
